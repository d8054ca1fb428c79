// Package service is the concurrent query-serving layer over
// windowdb.Engine: the subsystem that turns the single-query reproduction
// into a system that plans once and executes many.
//
// Three mechanisms compose:
//
//   - a prepared-statement cache (planCache): normalized SQL text maps to a
//     *sql.Prepared — parse, bind and CSO planning paid once — keyed
//     against the engine's catalog generation so re-registering a table
//     invalidates every plan built on the old entry. Hit, miss,
//     invalidation and eviction counters are exported.
//
//   - admission control (governor): a global reorder-memory budget is
//     divided into unit-memory execution slots; at most Slots chains run
//     concurrently, each entitled to the full unit reorder memory M of
//     Section 6.1, in the spirit of the spill-budget discipline of Shi &
//     Wang's aggregate-window spilling work. Excess queries wait in a
//     bounded queue honoring context cancellation and deadlines (threaded
//     down to chain-step boundaries in the executor); past the bound they
//     fail fast with the typed ErrOverloaded.
//
//   - metrics: QPS, in-flight gauge with high-water mark, an exponential
//     latency histogram read at p50/p95/p99, and aggregated exec.Metrics.
//
// The HTTP front end over this layer lives in http.go (Service.Handler);
// cmd/windserve wires it to a socket, and internal/bench.RunService drives
// it with an ostresser-style closed-loop load harness.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Config parameterizes a Service. The zero value serves: 4 chain-memory
// slots, a 64-entry admission queue, a 256-statement plan cache, no
// implicit deadline.
type Config struct {
	// MemoryBudgetBytes is the global reorder-memory budget shared by all
	// concurrent queries. It is divided by the per-chain memory cost —
	// the engine's unit reorder memory M times its resolved parallel
	// degree, since every worker of a parallel chain is entitled to the
	// full M — into execution slots (minimum 1): with the default 0 the
	// budget is 4 chains' worth. Ignored when Slots is set.
	MemoryBudgetBytes int
	// Slots overrides the derived slot count when > 0.
	Slots int
	// MaxQueue bounds the queries waiting for a slot; the MaxQueue+1-th
	// waiter is rejected with ErrOverloaded. Default 64; negative means no
	// queue (immediate rejection when all slots are busy).
	MaxQueue int
	// CacheEntries bounds the prepared-statement cache (default 256).
	CacheEntries int
	// SubplanEntries bounds the shared-subplan cache — materialized
	// scan+reorder segments shared across concurrent queries (subplan.go).
	// Default 32; each entry pins a filtered, reordered copy of its table,
	// so the bound is deliberately much smaller than the plan cache's.
	SubplanEntries int
	// DisableSharing turns the shared-subplan cache off: every query runs
	// its own scan. The A/B switch for windbench -exp share and a bail-out
	// if sharing ever misbehaves in production.
	DisableSharing bool
	// DefaultTimeout is applied to queries whose context carries no
	// deadline. 0 leaves them unbounded.
	DefaultTimeout time.Duration
	// ShardRoutes mounts the /shard/* node surface (query, register,
	// table, distinct, shuffle) on Handler. Off by default: those routes
	// let a cluster coordinator install tables and dump raw rows, so only
	// processes meant to serve as shard nodes — deployed behind the
	// cluster boundary, not on the public edge — should enable them.
	ShardRoutes bool
	// PeerClient is the HTTP client shuffle stages use to deliver
	// re-shuffled rows to peer nodes (their /shard/shuffle routes); nil
	// uses http.DefaultClient. Configure it when the node-to-node data
	// plane needs TLS, a custom CA or dial timeouts — the coordinator's
	// own transport client never carries this traffic.
	PeerClient *http.Client
	// ShuffleTTL expires idle shuffle-inbox buffers: a coordinator that
	// dies between delivering a round and consuming it can never send its
	// cleanup drop, so nodes sweep buffers untouched for this long
	// (lazily, on shuffle activity and Stats). 0 means the 5-minute
	// default — generously past any round barrier a live coordinator
	// would tolerate — and negative disables expiry.
	ShuffleTTL time.Duration
	// DisableBinary pins every streamed response — and every shuffle
	// delivery this node originates — to the NDJSON codec, even for
	// clients whose Accept names the binary frame stream. For wire
	// debugging and for holding a mixed-version fleet to its lowest
	// common codec.
	DisableBinary bool
	// TraceRing bounds the /debug/trace ring buffer of recent query
	// traces (default 128; negative disables recording).
	TraceRing int
	// SlowLogThreshold enables the structured slow-query log: every query
	// at or over the threshold emits one JSON line (kind "slow_query")
	// with its span tree to SlowLogWriter. 0 disables.
	SlowLogThreshold time.Duration
	// SlowLogWriter receives slow-query lines; nil defaults to stderr.
	SlowLogWriter io.Writer
	// SlowLogRate caps slow-query log emission in lines per second (the
	// storm guard; suppressed lines are counted and the count rides on the
	// next emitted line). 0 means trace.DefaultSlowLogRate; negative
	// uncaps.
	SlowLogRate int
}

func (c Config) withDefaults(chainMem int) Config {
	if c.Slots <= 0 {
		budget := c.MemoryBudgetBytes
		if budget <= 0 {
			budget = 4 * chainMem
		}
		c.Slots = budget / chainMem
		if c.Slots < 1 {
			c.Slots = 1
		}
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 64
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.SubplanEntries <= 0 {
		c.SubplanEntries = 32
	}
	switch {
	case c.ShuffleTTL == 0:
		c.ShuffleTTL = 5 * time.Minute
	case c.ShuffleTTL < 0:
		c.ShuffleTTL = 0 // disabled
	}
	return c
}

// Service is a thread-safe query service over a windowdb.Engine. All
// methods may be called concurrently.
type Service struct {
	eng      *windowdb.Engine
	cfg      Config
	gov      *governor
	cache    *planCache
	subplans *subplanCache // nil when Config.DisableSharing
	metrics  *Metrics
	inbox    shuffleInbox
	ring     *trace.Ring
	slow     *trace.SlowLogger
	reg      *trace.Registry
}

// New builds a service over eng. The engine must not be shared with
// another admission-controlled service (slots would not compose).
func New(eng *windowdb.Engine, cfg Config) *Service {
	// Per-chain memory cost: M per worker of the parallel executor
	// (ResolvedConfig returns the concrete degree, ≥ 1).
	rc := eng.ResolvedConfig()
	cfg = cfg.withDefaults(rc.SortMemBytes * rc.Parallelism)
	slowW := cfg.SlowLogWriter
	if slowW == nil {
		slowW = os.Stderr
	}
	s := &Service{
		eng:     eng,
		cfg:     cfg,
		gov:     newGovernor(cfg.Slots, cfg.MaxQueue),
		cache:   newPlanCache(cfg.CacheEntries),
		metrics: newMetrics(),
		slow:    trace.NewSlowLoggerRate(slowW, cfg.SlowLogThreshold, cfg.SlowLogRate),
		reg:     trace.NewRegistry(),
	}
	if !cfg.DisableSharing {
		s.subplans = newSubplanCache(cfg.SubplanEntries)
	}
	if cfg.TraceRing >= 0 {
		n := cfg.TraceRing
		if n == 0 {
			n = 128
		}
		s.ring = trace.NewRing(n)
	}
	return s
}

// Traces exposes the ring buffer of recent query traces (nil when
// disabled); the /debug/trace endpoint and the coordinator read it.
func (s *Service) Traces() *trace.Ring { return s.ring }

// Registry exposes the in-flight query registry behind GET/DELETE
// /debug/queries: every admitted statement — streamed, buffered or a
// shuffle stage — is listed with live counters until its cursor finishes,
// and Kill fires the stored cancel (the query then classifies as
// aborted).
func (s *Service) Registry() *trace.Registry { return s.reg }

// role names this process for registry entries.
func (s *Service) role() string {
	if s.cfg.ShardRoutes {
		return "shardnode"
	}
	return "engine"
}

// recordTrace finalizes one served query's trace: the ring entry and, past
// the threshold, the slow-query log line.
func (s *Service) recordTrace(id, src string, start time.Time, elapsed time.Duration, root *trace.Span, err error) {
	if id == "" || (s.ring == nil && s.slow == nil) {
		return
	}
	t := &trace.Trace{
		ID: id, SQL: src, Start: start,
		DurationMillis: trace.Millis(elapsed),
		Root:           root,
	}
	if err != nil {
		t.Error = err.Error()
	}
	s.ring.Add(t)
	s.slow.Observe(t)
}

// Engine returns the wrapped engine (for registration; Register invalidates
// cached plans via the catalog generation).
func (s *Service) Engine() *windowdb.Engine { return s.eng }

// resolveFP turns statement text into its Prepared through the plan
// cache, preparing and caching on a miss; the bool reports a cache hit.
// fp is an optional coordinator-shipped plan fingerprint: when a scatter
// or shuffle request carries the coordinator's fingerprint of the
// statement, the node answers from its fingerprint index — one O(1) map
// lookup instead of normalizing the SQL text — before falling back to the
// text-keyed path. A miss prepares as usual and links the fingerprint for
// the query's next round.
func (s *Service) resolveFP(src, fp string) (*sql.Prepared, bool, error) {
	gen := s.eng.Generation()
	if fp != "" {
		if prep, ok := s.cache.getFP(fp, gen); ok {
			return prep, true, nil
		}
	}
	key := NormalizeSQL(src)
	prep, hit := s.cache.get(key, gen)
	if !hit {
		p, err := s.eng.Prepare(src)
		if err != nil {
			return nil, false, err
		}
		s.cache.put(key, p)
		prep = p
	}
	if fp != "" {
		s.cache.linkFP(fp, key)
	}
	return prep, hit, nil
}

// Slots returns the concurrent-execution bound the governor enforces.
func (s *Service) Slots() int { return s.gov.Slots() }

// QueryResult is one served query: the engine result plus serving-side
// observations.
type QueryResult struct {
	*windowdb.Result
	// CacheHit reports that the plan came from the prepared-statement cache
	// (no parse/bind/plan work on this call).
	CacheHit bool
	// Queued is the time spent waiting for an execution slot.
	Queued time.Duration
	// Elapsed is the end-to-end service time: cache lookup or prepare,
	// admission wait, and execution.
	Elapsed time.Duration
	// TraceID names the query's recorded trace in /debug/trace/{id}.
	TraceID string
}

// Query serves one query buffered: QueryContext's cursor, drained into a
// table. Error classes: parse and bind errors (sql.ErrParse/ErrBind),
// unknown tables (catalog.ErrUnknownTable), admission rejection
// (ErrOverloaded), and ctx.Err() for queries cancelled or timed out while
// queued or between chain steps; anything else is an engine fault.
func (s *Service) Query(ctx context.Context, src string) (*QueryResult, error) {
	if _, ok := windowdb.StripSubscribe(src); ok {
		// A subscription never completes, so it cannot be served buffered.
		return nil, fmt.Errorf("%w: SUBSCRIBE needs a streaming client (stream=1 or Accept: %s)", sql.ErrBind, ContentTypeNDJSON)
	}
	start := time.Now()
	rows, err := s.QueryContext(ctx, src)
	if err != nil {
		return nil, err
	}
	res, err := windowdb.DrainResult(rows)
	if err != nil {
		return nil, err
	}
	out := &QueryResult{Result: res, Elapsed: time.Since(start)}
	if m := rows.Metrics(); m != nil {
		out.CacheHit, out.Queued, out.TraceID = m.CacheHit, m.Queued, m.TraceID
	}
	return out, nil
}

// queryTrace assembles a served query's span tree: the admission wait,
// the chain execution subtree (per-step reorder choice, cardinality and
// spill), and the residual drain/render time.
func queryTrace(elapsed, queued time.Duration, cacheHit bool, rows int64, meta *windowdb.QueryMetrics) *trace.Span {
	root := trace.New("query", elapsed)
	if cacheHit {
		root.SetAttr("plan_cache", "hit")
	} else {
		root.SetAttr("plan_cache", "miss")
	}
	root.SetInt("rows", rows)
	root.Add(trace.New("admission.wait", queued))
	var execElapsed time.Duration
	if meta != nil && meta.SharedScan != "" {
		root.SetAttr("shared_scan", meta.SharedScan)
	}
	if meta != nil {
		if es := windowdb.ExecTrace(meta); es != nil {
			root.Add(es)
			execElapsed = meta.Exec.Elapsed
		}
	}
	if d := elapsed - queued - execElapsed; d > 0 {
		root.Add(trace.New("drain", d))
	}
	return root
}

// Service implements windowdb.Queryer: QueryContext serves a statement as
// an incremental Rows cursor whose admission slot is held for the cursor's
// whole lifetime — acquired before execution, released when the cursor is
// drained or closed. A client that stops consuming must Close (the HTTP
// layer does so on disconnect), or its slot stays occupied; a cancelled
// context unblocks a half-drained cursor at the next row stride and
// releases the slot the same way.
var _ windowdb.Queryer = (*Service)(nil)

// QueryContext serves one query as a streaming cursor. The error classes
// match Query's. An `EXPLAIN ANALYZE <stmt>` prefix executes the inner
// statement through the same path and returns the annotated trace
// rendering as a one-column text cursor; an `INSERT INTO ...` statement
// appends through Service.Append and returns the one-row summary cursor;
// a `SUBSCRIBE <stmt>` prefix serves the long-lived maintained cursor —
// the subscription holds its admission slot for its whole lifetime, shows
// in /debug/queries with phase "waiting for data", and is killable there.
func (s *Service) QueryContext(ctx context.Context, src string) (*windowdb.Rows, error) {
	if inner, ok := windowdb.StripExplainAnalyze(src); ok {
		return windowdb.ExplainAnalyzeRows(ctx, s, inner)
	}
	if windowdb.IsInsert(src) {
		return s.insertStream(ctx, src)
	}
	if inner, ok := windowdb.StripSubscribe(src); ok {
		return s.subscribeStream(ctx, src, inner)
	}
	return s.stream(ctx, src, "", "", false)
}

// insertStream serves an INSERT: parse, append (metered), one-row summary.
func (s *Service) insertStream(ctx context.Context, src string) (*windowdb.Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ins, err := sql.ParseInsert(src)
	if err != nil {
		s.metrics.failures.Add(1)
		return nil, err
	}
	_, wm, err := s.Append(ctx, ins.Table, ins.Rows, 0)
	if err != nil {
		return nil, err
	}
	return windowdb.NewInsertRows(ins.Table, len(ins.Rows), wm), nil
}

// subscribeStream serves a SUBSCRIBE through the shared streaming body:
// the inner statement resolves through the plan cache, the subscription is
// admitted like any chain (it holds the slot while live) and registered
// under the full SUBSCRIBE text.
func (s *Service) subscribeStream(ctx context.Context, full, inner string) (*windowdb.Rows, error) {
	return s.streamCursor(ctx, full, inner, "", "waiting for data", func(ctx context.Context, prep *sql.Prepared) (execCursor, error) {
		return s.eng.SubscribeStatement(ctx, prep)
	})
}

// StreamShardLocal is QueryContext for the shard-local part of a statement
// (WHERE, chain, projection — no DISTINCT/ORDER BY/LIMIT): what a shard
// node streams back to a scatter-gather coordinator. fp is the
// coordinator's optional plan fingerprint (resolveFP); "" resolves by
// text. subplanFP is the coordinator's subplan fingerprint: when every
// request of a distributed statement carries it, the node's shared-subplan
// cache collides them by construction and one scan serves the fan-out.
// Because the shard-local pipeline never finalizes, rows leave the node
// the moment the final chain segment's projection yields them.
func (s *Service) StreamShardLocal(ctx context.Context, src, fp, subplanFP string) (*windowdb.Rows, error) {
	return s.stream(ctx, src, fp, subplanFP, true)
}

// PrepareContext validates and plans src through the service's plan cache,
// returning a statement that executes via the streaming path.
func (s *Service) PrepareContext(ctx context.Context, src string) (windowdb.Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, _, err := s.resolveFP(src, ""); err != nil {
		return nil, err
	}
	return &serviceStmt{s: s, src: src}, nil
}

// serviceStmt re-resolves through the plan cache per execution, so a
// statement survives table re-registration (the cache re-prepares under
// the new catalog generation).
type serviceStmt struct {
	s   *Service
	src string
}

func (st *serviceStmt) QueryContext(ctx context.Context) (*windowdb.Rows, error) {
	return st.s.QueryContext(ctx, st.src)
}

func (st *serviceStmt) Close() error { return nil }

// execCursor is what a served stream drains: the sql.Cursor shape, also
// satisfied by the engine's live Subscription — the widening that lets
// SUBSCRIBE share the admission/registry/metrics discipline of one-shot
// streams.
type execCursor interface {
	Columns() []storage.Column
	Next() (storage.Tuple, error)
	Close() error
	Meta() *sql.Result
}

func (s *Service) stream(ctx context.Context, src, fp, subplanFP string, shardLocal bool) (*windowdb.Rows, error) {
	return s.streamCursor(ctx, src, src, fp, "draining", func(ctx context.Context, prep *sql.Prepared) (execCursor, error) {
		return s.openStream(ctx, prep, subplanFP, shardLocal)
	})
}

// streamCursor is the shared streaming-serve body: plan-cache resolution
// (by fingerprint when the coordinator shipped one, by text otherwise),
// admission, and the handoff-guarded slot-to-cursor transfer, with the
// execution cursor opened by open (the full statement, its shard-local
// part, a shuffle segment, or a subscription). display is the statement
// text registered in /debug/queries (the full SUBSCRIBE spelling for
// subscriptions); src is what resolves through the plan cache; phase is
// the registry phase the cursor shows while it streams.
func (s *Service) streamCursor(ctx context.Context, display, src, fp, phase string, open func(context.Context, *sql.Prepared) (execCursor, error)) (*windowdb.Rows, error) {
	var timeoutCancel context.CancelFunc
	if s.cfg.DefaultTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			// The timeout must cover the cursor's whole lifetime, so the
			// cancel travels with the stream and fires when it finishes.
			ctx, timeoutCancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		}
	}
	// The kill cancel wraps ctx unconditionally — DELETE /debug/queries/{id}
	// fires it through the registry entry whether or not a timeout is armed
	// — and travels with the cursor exactly like the timeout cancel.
	ctx, kill := context.WithCancel(ctx)
	cancel := func() {
		kill()
		if timeoutCancel != nil {
			timeoutCancel()
		}
	}
	id := trace.IDFromContext(ctx)
	ctx = trace.NewContext(ctx, id)
	entry := s.reg.Register(id, display, s.role(), trace.ClientFromContext(ctx), kill)
	live := entry.Live()
	ctx = trace.WithLive(ctx, live)
	live.SetPhase("planning")
	fail := func(err error) error {
		s.reg.Remove(entry)
		if entry.Killed() {
			s.metrics.aborted.Add(1)
		} else {
			s.metrics.failures.Add(1)
		}
		cancel()
		return err
	}
	start := time.Now()
	prep, hit, err := s.resolveFP(src, fp)
	if err != nil {
		return nil, fail(err)
	}

	live.SetPhase("queued")
	queueStart := time.Now()
	if _, err := s.gov.acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.rejected.Add(1)
		}
		return nil, fail(err)
	}
	queued := time.Since(queueStart)
	live.RaiseMemPeak(1)
	live.SetPhase("executing")
	s.metrics.beginExec()
	// Until the slot is handed to the cursor, release it on every exit —
	// error or panic (recovered per-request by net/http): a panicking
	// chain must not wedge the governor shut while /healthz still answers
	// ok.
	handoff := false
	defer func() {
		if !handoff {
			s.metrics.endExec()
			s.gov.release()
		}
	}()

	cur, err := open(ctx, prep)
	if err != nil {
		s.reg.Remove(entry)
		elapsed := time.Since(start)
		root := queryTrace(elapsed, queued, hit, 0, nil)
		root.SetAttr("error", err.Error())
		if entry.Killed() {
			root.SetAttr("killed", "true")
			s.metrics.aborted.Add(1)
		} else {
			s.metrics.observe(nil, 0, elapsed, err)
		}
		s.recordTrace(id, display, start, elapsed, root, err)
		cancel()
		return nil, err
	}
	live.SetPhase(phase)
	handoff = true
	return windowdb.NewRows(&servedSource{
		svc: s, cur: cur, src: display, traceID: id, entry: entry, live: live,
		start: start, queued: queued, cacheHit: hit, cancel: cancel,
	}), nil
}

// servedSource adapts an execution cursor to the Rows contract while
// holding the service-side resources: the admission slot and the in-flight
// gauge, both released exactly once when the stream ends — drained, failed
// or closed early. The three endings classify differently: a full drain
// is a query, an execution error a failure, and an early Close (client
// disconnect, deliberate truncation) an abort — counted on its own
// gauge, with no latency sample, so partial deliveries don't masquerade
// as fast successes in the histogram.
type servedSource struct {
	svc      *Service
	cur      execCursor
	src      string
	traceID  string
	entry    *trace.QueryEntry
	live     *trace.Live
	start    time.Time
	queued   time.Duration
	cacheHit bool
	cancel   context.CancelFunc

	rows      int64
	completed bool // a terminal Next (io.EOF) was observed
	once      sync.Once
	meta      *windowdb.QueryMetrics
}

func (ss *servedSource) Columns() []storage.Column { return ss.cur.Columns() }

func (ss *servedSource) Next() (storage.Tuple, error) {
	t, err := ss.cur.Next()
	switch {
	case err == io.EOF:
		ss.completed = true
		ss.finish(nil)
	case err != nil:
		ss.finish(err)
	default:
		ss.rows++
		ss.live.AddRowsEmitted(1)
	}
	return t, err
}

func (ss *servedSource) Close() error {
	ss.finish(nil)
	return ss.cur.Close()
}

func (ss *servedSource) Metrics() *windowdb.QueryMetrics { return ss.meta }

func (ss *servedSource) finish(err error) {
	ss.once.Do(func() {
		// Drop the in-flight gauge before the slot: the next admitted
		// query raises it again, so the gauge never exceeds the slots.
		ss.svc.metrics.endExec()
		ss.svc.gov.release()
		ss.svc.reg.Remove(ss.entry)
		killed := ss.entry.Killed()
		elapsed := time.Since(ss.start)
		meta := windowdb.MetaFromResult(ss.cur.Meta())
		meta.CacheHit, meta.Queued, meta.Elapsed = ss.cacheHit, ss.queued, elapsed
		root := queryTrace(elapsed, ss.queued, ss.cacheHit, ss.rows, meta)
		if killed {
			root.SetAttr("killed", "true")
		}
		if err != nil {
			root.SetAttr("error", err.Error())
		} else if !ss.completed {
			root.SetAttr("aborted", "true")
		}
		meta.TraceID, meta.Trace = ss.traceID, root
		ss.meta = meta
		switch {
		case killed, errors.Is(err, context.Canceled):
			// The kill switch fired, or the consumer went away — a client
			// disconnect can surface as its request context ending before
			// a write fails. An abort either way, not an engine failure,
			// and no latency sample.
			ss.svc.metrics.aborted.Add(1)
		case err != nil:
			ss.svc.metrics.observe(nil, 0, elapsed, err)
		case !ss.completed:
			ss.svc.metrics.aborted.Add(1)
		default:
			ss.svc.metrics.observe(ss.cur.Meta().Metrics, ss.rows, elapsed, nil)
		}
		ss.svc.recordTrace(ss.traceID, ss.src, ss.start, elapsed, root, err)
		if ss.cancel != nil {
			ss.cancel()
		}
	})
}

// ResetMaxInFlight re-arms the in-flight high-water mark to the current
// gauge value, so load harnesses can read a per-window maximum instead of
// the lifetime one.
func (s *Service) ResetMaxInFlight() {
	s.metrics.maxInFlight.Store(s.metrics.inFlight.Load())
}

// Stats snapshots the service counters, including admission and cache
// state. It doubles as the shuffle inbox's periodic sweep trigger: /stats
// polling is the one call path a node sees regularly even when no new
// shuffles arrive, so orphaned buffers expire without a background
// goroutine.
func (s *Service) Stats() Snapshot {
	s.sweepShuffle()
	snap := s.metrics.snapshot()
	snap.Slots = s.gov.Slots()
	snap.QueueDepth = s.gov.queueDepth()
	snap.LiveQueries = s.reg.Len()
	snap.Cache = s.cache.stats()
	if s.subplans != nil {
		snap.Subplans = s.subplans.stats()
	}
	return snap
}
