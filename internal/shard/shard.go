// Package shard is the distributed execution subsystem: a Cluster
// coordinator scattering window-function chains across N shard nodes, each
// a full windowdb.Engine (private catalog, spill store, unit reorder
// memory M) behind a Transport.
//
// The routing rule lifts Section 3.5 of the paper from threads of one
// process to nodes of a cluster. RegisterSharded hash-partitions a table's
// rows on a declared shard key with the executors' tuple-encoding hash
// (exec.PartitionRows); small dimension tables replicate instead. A query
// prepares once at the coordinator — against a schema-only catalog stub
// whose statistics are aggregated from the shards — and then routes:
//
//   - scatter: when the chain's common partition key covers the shard key
//     (exec.ChainCommonKey via sql.Prepared.ShardLocal), no window
//     partition spans shards, so every shard runs the unchanged
//     sequential/parallel pipeline over its own rows and the coordinator
//     concatenates the outputs in shard-index order — deterministic and
//     value-identical to single-engine execution — then finalizes
//     (DISTINCT, ORDER BY as a full sort, LIMIT) over the concatenation,
//     exactly as post-barrier segments restart in exec.ParallelRun;
//   - shuffle: when the keys diverge but every key-divergence segment of
//     the chain keeps a non-empty common key (exec.DivergentSegments — the
//     Section 3.5 condition applied per segment instead of per chain), the
//     segments run scattered one round at a time, each node re-shuffling
//     its output rows directly to the peer nodes hash-partitioned on the
//     next segment's key (the service's /shard/shuffle data plane); the
//     coordinator only drives the rounds and merge-concatenates the final
//     segment's streams exactly as scatter does, so its resident rows stay
//     bounded by the wire batch × shard count while the re-shuffled rows
//     never leave the node tier;
//   - gather: when no usable key exists (an empty PARTITION BY, or a
//     post-divergence segment that does not rebuild order), the
//     coordinator streams the raw rows to itself and runs the chain — the
//     concatenation arrives in arbitrary order, which is the Unordered
//     property the plan was built from, so its first order-rebuilding
//     FS/HS step absorbs the shuffle;
//   - replica: queries over replicated tables go, whole, to one node
//     round-robin.
//
// Transports come in two forms: Local (in-process service.Service — tests,
// benches, single-binary scale-up) and HTTP (the /shard/* routes of a
// remote windserve, so windserve -shards host1,host2 forms a real
// cluster). Cluster.Handler serves the coordinator's own /query, /stats
// (per-shard aggregation) and /healthz (fan-out) front end.
package shard

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Config parameterizes a Cluster.
type Config struct {
	// Engine configures the coordinator's planning-and-gather engine:
	// scheme, unit reorder memory, block size, spill backing, parallelism
	// (the gather path runs chains here with these resources).
	Engine windowdb.Config
	// CacheEntries bounds the coordinator's prepared-statement cache
	// (default 256). Shard nodes keep their own plan caches; this one
	// saves the coordinator's parse/bind/plan and routing work.
	CacheEntries int
	// GatherSlots bounds the gather-route chains executing concurrently
	// at the coordinator (default 4, negative = 1) — the coordinator-side
	// analogue of the shard nodes' admission governor: each gather chain
	// assumes the full unit reorder memory M, so an unbounded count would
	// reopen the overload hole admission control closes on single
	// engines. Scatter and replica routes execute on the shards, whose
	// own governors bound them.
	GatherSlots int
	// DefaultTimeout is applied to queries whose context carries no
	// deadline (0 leaves them unbounded), covering shard fan-outs and
	// coordinator-side execution alike.
	DefaultTimeout time.Duration
	// StatsTimeout bounds each statistics fan-out behind the
	// coordinator's catalog stubs (default 15s). The D(·) estimator runs
	// during planning, detached from any single query's context — one
	// wedged shard must not hang every statement that needs a fresh
	// distinct count.
	StatsTimeout time.Duration
	// TraceRing bounds the coordinator's /debug/trace ring buffer of
	// recent query traces (default 128; negative disables tracing
	// retention — traces still assemble and ride the trailer).
	TraceRing int
	// SlowLogThreshold enables the structured slow-query log: every query
	// at or over the threshold emits one JSON line (trace tree included)
	// to SlowLogWriter. Zero disables.
	SlowLogThreshold time.Duration
	// SlowLogWriter receives slow-query log lines; nil means os.Stderr.
	SlowLogWriter io.Writer
	// SlowLogRate caps slow-query log emission in lines per second
	// (suppressed lines are counted onto the next emitted line). 0 means
	// trace.DefaultSlowLogRate; negative uncaps.
	SlowLogRate int
}

// Cluster coordinates query execution over shard nodes. All methods are
// safe for concurrent use once the cluster's tables are registered;
// registration itself may run concurrently with queries (catalog
// generations invalidate cached plans, as on a single engine).
type Cluster struct {
	cfg    Config
	shards []Transport
	coord  *windowdb.Engine

	mu     sync.RWMutex
	tables map[string]*tableInfo // keyed by folded name

	cache          *planCache
	gatherSlot     chan struct{} // bounds coordinator-side gather chains
	gatherInFlight atomic.Int64  // gather chains currently holding a slot
	rr             atomic.Uint64 // replica round-robin cursor

	// Shuffle identity: every per-segment distributed query names its
	// buffered state on the nodes with nonce-seq, so concurrent queries —
	// and queries from other coordinators sharing the nodes — never
	// collide.
	shuffleNonce string
	shuffleSeq   atomic.Uint64
	// peerAddrs[i] is shard i's base URL when its transport exposes one
	// (HTTP); remote nodes address each other with these on the shuffle
	// data plane. In-process transports deliver through deliverShuffle
	// instead.
	peerAddrs []string
	// shuffleOK reports that every node can reach every peer on the
	// shuffle data plane: either all nodes are addressable (remote nodes
	// send to the Peers URLs) or none is (in-process nodes deliver
	// through deliverShuffle). A mixed topology would strand a remote
	// node without an address for an in-process peer, so key-divergent
	// chains there keep the gather fallback.
	shuffleOK bool

	queries, failures, aborted           atomic.Uint64
	scatter, shuffled, gathered, replica atomic.Uint64
	appends, rowsAppended                atomic.Uint64

	// Coordinator-side observability: the /debug/trace ring of recent
	// query traces, the slow-query logger (both optional), the in-flight
	// query registry behind /debug/queries, and the last shuffle round's
	// max/mean row imbalance ratio (math.Float64bits-packed) feeding the
	// windowdb_shuffle_round_imbalance gauge.
	ring      *trace.Ring
	slow      *trace.SlowLogger
	reg       *trace.Registry
	imbalance atomic.Uint64
}

// tableInfo records how a table is distributed.
type tableInfo struct {
	name    string // as-registered spelling
	sharded bool
	keyCols []string
	key     attrs.Set
	rows    int64
}

// New builds a cluster over the given shard transports. At least one shard
// is required; one shard is a degenerate but valid cluster (every scatter
// has a single partition).
func New(cfg Config, shards []Transport) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, errors.New("shard: a cluster needs at least one shard")
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	switch {
	case cfg.GatherSlots == 0:
		cfg.GatherSlots = 4
	case cfg.GatherSlots < 0:
		cfg.GatherSlots = 1
	}
	if cfg.StatsTimeout <= 0 {
		cfg.StatsTimeout = 15 * time.Second
	}
	addrs := make([]string, len(shards))
	addressable := 0
	for i, tr := range shards {
		if a, ok := tr.(interface{ Addr() string }); ok {
			addrs[i] = a.Addr()
			addressable++
		}
	}
	slowW := cfg.SlowLogWriter
	if slowW == nil {
		slowW = os.Stderr
	}
	c := &Cluster{
		shuffleOK:    addressable == 0 || addressable == len(shards),
		cfg:          cfg,
		shards:       shards,
		coord:        windowdb.New(cfg.Engine),
		tables:       make(map[string]*tableInfo),
		cache:        newPlanCache(cfg.CacheEntries),
		gatherSlot:   make(chan struct{}, cfg.GatherSlots),
		shuffleNonce: shuffleNonce(),
		peerAddrs:    addrs,
		slow:         trace.NewSlowLoggerRate(slowW, cfg.SlowLogThreshold, cfg.SlowLogRate),
		reg:          trace.NewRegistry(),
	}
	if cfg.TraceRing >= 0 {
		n := cfg.TraceRing
		if n == 0 {
			n = 128
		}
		c.ring = trace.NewRing(n)
	}
	return c, nil
}

// Traces returns the coordinator's ring of recent query traces (nil when
// disabled); /debug/trace serves from it.
func (c *Cluster) Traces() *trace.Ring { return c.ring }

// Registry returns the coordinator's in-flight query registry: every
// statement inside QueryContext is listed with live phase and counters,
// and Kill fires its stored cancel (the query classifies as aborted).
// GET/DELETE /debug/queries serve from it, with the shard nodes' matching
// entries merged under each owning query.
func (c *Cluster) Registry() *trace.Registry { return c.reg }

// ShuffleImbalance reports the most recent shuffle round's max/mean
// per-node output-row ratio (1 = perfectly balanced, 0 = no shuffle round
// observed yet) — the feed for skew-aware repartitioning.
func (c *Cluster) ShuffleImbalance() float64 {
	return math.Float64frombits(c.imbalance.Load())
}

// imbalanceRatio computes max/mean over per-node output-row counts; 0 when
// the round moved no rows at all (no meaningful skew to report).
func imbalanceRatio(rowsOut []int64) float64 {
	var max, sum int64
	for _, r := range rowsOut {
		sum += r
		if r > max {
			max = r
		}
	}
	if sum == 0 || len(rowsOut) == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(rowsOut))
	return float64(max) / mean
}

// shuffleNonce generates the coordinator's shuffle-id prefix. Random, not
// clock-derived: two coordinators sharing the same shard nodes must never
// produce colliding ids (their batches would intermix in one inbox
// buffer), and same-tick construction with identical sequence counters is
// exactly the collision a wall clock permits.
func shuffleNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to
		// the clock rather than refusing to build a cluster.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// deliverShuffle routes one re-shuffled batch to the peer's transport: the
// in-process data plane (Local nodes ingest directly, HTTP nodes get the
// NDJSON POST their transport speaks). Remote nodes executing a stage use
// the request's peer addresses instead and never call back here.
func (c *Cluster) deliverShuffle(ctx context.Context, peer int, b *service.ShuffleBatch) error {
	if peer < 0 || peer >= len(c.shards) {
		return fmt.Errorf("shard: shuffle delivery to unknown peer %d", peer)
	}
	return c.shards[peer].AcceptShuffle(ctx, b)
}

// Shards returns the number of shard nodes.
func (c *Cluster) Shards() int { return len(c.shards) }

// Coordinator returns the coordinator engine (stub catalog; the gather
// path's executor). Tests inspect it.
func (c *Cluster) Coordinator() *windowdb.Engine { return c.coord }

// RegisterSharded hash-partitions t's rows on the named key columns and
// installs one partition per shard, all under name. The coordinator keeps
// only a schema stub with aggregated statistics: |R| and B(R) exactly,
// D(·) as the capped sum of shard-local counts — exact whenever the set
// contains the shard key (groups are then disjoint across shards), an
// upper bound otherwise. Chains whose common partition key covers the
// shard key will execute shard-locally (scatter); others fall back to
// gather.
func (c *Cluster) RegisterSharded(ctx context.Context, name string, t *storage.Table, keyCols ...string) error {
	if len(keyCols) == 0 {
		return fmt.Errorf("shard: sharded registration of %q needs a shard key", name)
	}
	var key attrs.Set
	for _, col := range keyCols {
		i := t.Schema.ColIndex(col)
		if i < 0 {
			return fmt.Errorf("shard: table %q has no column %q", name, col)
		}
		key = key.Add(attrs.ID(i))
	}
	parts := exec.PartitionRows(t.Rows, key.IDs(), len(c.shards))
	if err := c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
		pt := storage.NewTable(t.Schema)
		pt.Rows = parts[i]
		return tr.Register(ctx, name, pt)
	}); err != nil {
		return fmt.Errorf("shard: registering %q: %w", name, err)
	}
	rows := int64(t.Len())
	c.coord.RegisterStub(name, t.Schema, catalog.TableStats{
		Rows:     rows,
		Bytes:    int64(t.ByteSize()),
		Distinct: c.distinctFn(name, rows),
	})
	c.mu.Lock()
	c.tables[strings.ToLower(name)] = &tableInfo{
		name: name, sharded: true, keyCols: keyCols, key: key, rows: rows,
	}
	c.mu.Unlock()
	// Per-table invalidation: only plans prepared against this table are
	// built on the superseded entry; other tables' plans stay hot.
	c.cache.invalidateTable(name)
	return nil
}

// RegisterReplicated installs the full table on every shard — the small
// dimension-table path. Queries over it go, whole, to one node
// round-robin; the coordinator keeps the table too, for exact statistics.
func (c *Cluster) RegisterReplicated(ctx context.Context, name string, t *storage.Table) error {
	if err := c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
		return tr.Register(ctx, name, t)
	}); err != nil {
		return fmt.Errorf("shard: replicating %q: %w", name, err)
	}
	c.coord.Register(name, t)
	c.mu.Lock()
	c.tables[strings.ToLower(name)] = &tableInfo{name: name, rows: int64(t.Len())}
	c.mu.Unlock()
	c.cache.invalidateTable(name)
	return nil
}

// distinctFn builds the stub's D(·) estimator: the capped sum of
// shard-local distinct counts, resolved lazily per set (the catalog entry
// caches each set's answer). A shard error degrades to the row count —
// the most pessimistic well-defined estimate — rather than failing the
// plan.
func (c *Cluster) distinctFn(name string, rows int64) func(attrs.Set) int64 {
	return func(set attrs.Set) int64 {
		// The estimator runs during planning, outside any one query's
		// context; bound it so a wedged shard cannot hang every statement
		// that needs this set's count.
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.StatsTimeout)
		defer cancel()
		counts := make([]int64, len(c.shards))
		err := c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
			d, err := tr.Distinct(ctx, name, set)
			if err != nil {
				return err
			}
			counts[i] = d
			return nil
		})
		if err != nil {
			return rows
		}
		var sum int64
		for _, d := range counts {
			sum += d
		}
		if sum > rows {
			sum = rows
		}
		return sum
	}
}

// eachShard runs fn for every shard concurrently. The first failure
// cancels the peers — a query doomed by one shard must not keep burning
// the others' execution slots for the slowest shard's full chain time.
// The returned error is the first (by shard index) failure that is not
// just the fallout of that cancellation; peer cancellation noise is
// dropped when a real cause exists.
func (c *Cluster) eachShard(ctx context.Context, fn func(ctx context.Context, i int, tr Transport) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, tr := range c.shards {
		wg.Add(1)
		go func(i int, tr Transport) {
			defer wg.Done()
			if err := fn(ctx, i, tr); err != nil {
				errs[i] = err
				cancel()
			}
		}(i, tr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return errors.Join(errs...)
}

// Result is one coordinated query: the final table plus how it was routed
// and the aggregated execution observations.
type Result struct {
	Table *storage.Table
	// Plan is the coordinator's planned chain (nil for window-less
	// statements). Shards may plan differently against their local
	// statistics; any valid chain computes the same values.
	Plan *core.Plan
	// Route is "scatter" (shard-local chains, coordinator finalize),
	// "shuffle" (per-segment scattered execution with node-to-node
	// re-shuffles between key-divergent segments), "gather" (raw rows
	// pulled to the coordinator) or "replica" (whole query on one node).
	Route string
	// ShardsUsed is the number of nodes that executed for this query.
	ShardsUsed int
	// CacheHit reports a coordinator plan-cache hit (shard-side caches are
	// separate).
	CacheHit bool
	// FinalSort reports how an ORDER BY was satisfied at the final step.
	FinalSort string
	// Elapsed is the end-to-end coordinator time.
	Elapsed time.Duration
	// Block and comparison counters sum over every participating node
	// (plus the coordinator's own chain on the gather path).
	BlocksRead    int64
	BlocksWritten int64
	Comparisons   int64
	// TraceID and Trace identify and carry the query's assembled
	// distributed span tree (shuffle rounds, node drains, coordinator
	// phases).
	TraceID string
	Trace   *trace.Span
}

// Query serves one statement and materializes its result: prepare
// (cached) at the coordinator, route, execute, finalize. It is the
// compatibility wrapper over QueryContext — the cursor drained into a
// table. Error classes match the single-engine service:
// sql.ErrParse/ErrBind, catalog.ErrUnknownTable, service.ErrOverloaded
// (from a shard's admission control), ctx errors, and engine faults —
// remote errors unwrap to the same sentinels (RemoteError).
func (c *Cluster) Query(ctx context.Context, src string) (*Result, error) {
	if _, ok := windowdb.StripSubscribe(src); ok {
		// A subscription never ends on its own; draining it into a table
		// would block forever.
		return nil, fmt.Errorf("%w: SUBSCRIBE needs a streaming cursor (QueryContext)", sql.ErrBind)
	}
	start := time.Now()
	rows, err := c.QueryContext(ctx, src)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	t := storage.NewTable(storage.NewSchema(rows.ColumnTypes()...))
	for rows.Next() {
		t.Rows = append(t.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	res := &Result{Table: t, Route: "scatter", ShardsUsed: len(c.shards), Elapsed: time.Since(start)}
	if m := rows.Metrics(); m != nil {
		res.Plan = m.Plan
		res.Route = m.Route
		res.ShardsUsed = m.ShardsUsed
		res.CacheHit = m.CacheHit
		res.FinalSort = m.FinalSort
		res.BlocksRead = m.BlocksRead
		res.BlocksWritten = m.BlocksWritten
		res.Comparisons = m.Comparisons
		res.TraceID = m.TraceID
		res.Trace = m.Trace
	}
	return res, nil
}

// Cluster implements windowdb.Queryer.
var _ windowdb.Queryer = (*Cluster)(nil)

// QueryContext serves one statement as an incremental Rows cursor. The
// scatter route merge-concatenates the per-node row streams in
// shard-index order — the coordinator holds in-flight rows, not node
// responses, so its memory is bounded by the wire batch size × shard
// count instead of |R| — except when DISTINCT or ORDER BY force the
// finalize pass to materialize the concatenation first. The gather route
// holds its coordinator execution slot, and every route its shard
// streams, until the cursor is drained or closed.
func (c *Cluster) QueryContext(ctx context.Context, src string) (*windowdb.Rows, error) {
	if inner, ok := windowdb.StripExplainAnalyze(src); ok {
		return windowdb.ExplainAnalyzeRows(ctx, c, inner)
	}
	if windowdb.IsInsert(src) {
		return c.insertRows(ctx, src)
	}
	// Join or start the distributed trace here so every fan-out this
	// statement makes — scatter streams, shuffle control rounds, gathers —
	// carries the same ID to the nodes.
	if trace.FromContext(ctx) == "" {
		ctx = trace.NewContext(ctx, trace.NewID())
	}
	var timeoutCancel context.CancelFunc
	if c.cfg.DefaultTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			ctx, timeoutCancel = context.WithTimeout(ctx, c.cfg.DefaultTimeout)
		}
	}
	// The kill cancel wraps ctx unconditionally: DELETE /debug/queries/{id}
	// fires it through the registry entry, cancelling every fan-out this
	// statement has open. It travels with the cursor like the timeout.
	ctx, kill := context.WithCancel(ctx)
	cancel := func() {
		kill()
		if timeoutCancel != nil {
			timeoutCancel()
		}
	}
	entry := c.reg.Register(trace.FromContext(ctx), src, "coordinator", trace.ClientFromContext(ctx), kill)
	ctx = trace.WithLive(ctx, entry.Live())
	entry.Live().SetPhase("planning")
	rows, err := c.streamQuery(ctx, src, cancel, entry)
	if err != nil {
		c.reg.Remove(entry)
		if entry.Killed() {
			c.aborted.Add(1)
		} else {
			c.failures.Add(1)
		}
		cancel()
		return nil, err
	}
	return rows, nil
}

// PrepareContext validates and plans src at the coordinator (through the
// plan cache), returning a statement that executes via the streaming
// path.
func (c *Cluster) PrepareContext(ctx context.Context, src string) (windowdb.Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, _, err := c.prepare(src); err != nil {
		return nil, err
	}
	return &clusterStmt{c: c, src: src}, nil
}

type clusterStmt struct {
	c   *Cluster
	src string
}

func (st *clusterStmt) QueryContext(ctx context.Context) (*windowdb.Rows, error) {
	return st.c.QueryContext(ctx, st.src)
}

func (st *clusterStmt) Close() error { return nil }

// clusterTrace carries a statement's trace identity through the routing
// paths plus the spans collected before the final streams open (the
// shuffle route's rounds) and its /debug/queries registry entry.
type clusterTrace struct {
	id     string
	src    string
	rounds []*trace.Span
	entry  *trace.QueryEntry
}

// live returns the statement's live counters (nil-safe on every level).
func (qt *clusterTrace) live() *trace.Live {
	if qt == nil {
		return nil
	}
	return qt.entry.Live()
}

// finishTrace assembles the coordinator's span tree for a finished query,
// stamps it into meta, and records it in the ring and slow log. outcomes
// are the per-node drain results in shard-index order (their Trace
// subtrees graft under per-node spans); rows is the cursor's emitted
// count.
func (c *Cluster) finishTrace(qt *clusterTrace, meta *windowdb.QueryMetrics, rows int64, outcomes []*QueryOutcome, start time.Time, err error, completed bool) {
	if qt == nil || qt.id == "" || meta == nil {
		return
	}
	root := trace.New("query", meta.Elapsed)
	root.SetAttr("route", meta.Route)
	root.SetInt("shards", int64(meta.ShardsUsed))
	if meta.CacheHit {
		root.SetAttr("plan_cache", "hit")
	} else {
		root.SetAttr("plan_cache", "miss")
	}
	root.SetInt("rows", rows)
	switch {
	case err != nil:
		root.SetAttr("error", err.Error())
	case !completed:
		root.SetAttr("aborted", "true")
	}
	for _, rs := range qt.rounds {
		root.Add(rs)
	}
	// The gather route executes the chain at the coordinator; its executor
	// span slots in like a node's would.
	root.Add(windowdb.ExecTrace(meta))
	for i, out := range outcomes {
		if out == nil || out.Trace == nil {
			continue
		}
		// Re-label the node's root ("query") as its shard position without
		// mutating the node-owned span (in-process transports share the
		// pointer with the node's own trace ring).
		root.Add(&trace.Span{
			Name:           fmt.Sprintf("node %d", i),
			DurationMillis: out.Trace.DurationMillis,
			Attrs:          out.Trace.Attrs,
			Children:       out.Trace.Children,
		})
	}
	meta.TraceID = qt.id
	meta.Trace = root
	t := &trace.Trace{
		ID: qt.id, SQL: qt.src, Start: start,
		DurationMillis: trace.Millis(meta.Elapsed), Root: root,
	}
	if err != nil {
		t.Error = err.Error()
	}
	c.ring.Add(t)
	c.slow.Observe(t)
}

// streamQuery prepares, routes and opens the statement's row stream.
// cancel, when non-nil, is the coordinator-imposed timeout; it must fire
// when the stream finishes, so it travels into the stream source.
func (c *Cluster) streamQuery(ctx context.Context, src string, cancel context.CancelFunc, entry *trace.QueryEntry) (*windowdb.Rows, error) {
	start := time.Now()
	qt := &clusterTrace{id: trace.FromContext(ctx), src: src, entry: entry}
	if inner, ok := windowdb.StripSubscribe(src); ok {
		return c.streamSubscribe(ctx, inner, cancel, start, qt)
	}
	prep, hit, err := c.prepare(src)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	info := c.tables[strings.ToLower(prep.Table())]
	c.mu.RUnlock()
	if info == nil {
		// Prepared against the coordinator catalog but never
		// cluster-registered: nothing owns rows for it.
		return nil, fmt.Errorf("%w %q (not cluster-registered)", catalog.ErrUnknownTable, prep.Table())
	}
	switch {
	case !info.sharded:
		return c.streamReplica(ctx, src, prep, hit, cancel, start, qt)
	case prep.ShardLocal(info.key):
		return c.streamScatter(ctx, src, prep, hit, cancel, start, qt)
	default:
		// Key-divergent chain: run it per segment with node-to-node
		// re-shuffles when every segment keeps a usable key and the
		// topology lets every node reach its peers (shuffleOK); plans with
		// no usable key (empty PARTITION BY, or a post-divergence segment
		// that cannot rebuild order) and mixed local/remote topologies
		// fall back to hauling raw rows.
		if sp := prep.SegmentPlan(); sp != nil && c.shuffleOK {
			return c.streamShuffle(ctx, src, prep, sp, info, hit, cancel, start, qt)
		}
		return c.streamGather(ctx, prep, info, hit, cancel, start, qt)
	}
}

// openStreams opens n row streams concurrently through open, so the nodes
// execute their chains in parallel. The first open failure cancels and
// closes the others; cancellation noise is stripped from the reported
// error as in eachShard. The returned cancel stops every stream and must
// be called when the merge finishes.
func (c *Cluster) openStreams(ctx context.Context, n int, open func(ctx context.Context, i int) (RowStream, error)) ([]RowStream, context.CancelFunc, error) {
	sctx, cancel := context.WithCancel(ctx)
	streams := make([]RowStream, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := open(sctx, i)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			streams[i] = s
		}(i)
	}
	wg.Wait()
	var failure error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			failure = err
			break
		}
	}
	if failure == nil {
		failure = errors.Join(errs...)
	}
	if failure != nil {
		for _, s := range streams {
			if s != nil {
				_ = s.Close()
			}
		}
		cancel()
		return nil, nil, failure
	}
	return streams, cancel, nil
}

// streamScatter runs the shard-local part on every shard and emits the
// concatenation of their streams in shard-index order.
func (c *Cluster) streamScatter(ctx context.Context, src string, prep *sql.Prepared, hit bool, cancel context.CancelFunc, start time.Time, qt *clusterTrace) (*windowdb.Rows, error) {
	c.scatter.Add(1)
	req := service.ShardQueryRequest{
		SQL: src, Mode: string(ModeLocal),
		Fingerprint: prep.Fingerprint(),
		SubplanFP:   prep.SubplanFingerprint(),
	}
	streams, streamCancel, err := c.openStreams(ctx, len(c.shards), func(ctx context.Context, i int) (RowStream, error) {
		return c.shards[i].QueryStream(ctx, req)
	})
	if err != nil {
		return nil, err
	}
	return c.emitStreams("scatter", prep, hit, streams, streamCancel, cancel, start, qt, 0, 0, 0)
}

// emitStreams turns per-node output streams into the public cursor for a
// scatter-shaped route. Statements whose finalize phase streams (no
// DISTINCT/ORDER BY) flow through with LIMIT applied by early termination;
// the rest drain into a buffer (still incremental on the wire), finalize
// at the coordinator (FinalizeConcat) and stream the finalized table. The
// base counters carry work done before the final streams opened (shuffle
// rounds). Until the streams are handed to a source (or drained here),
// they are closed on every exit — error or panic — so node admission
// slots are not leaked past a recovered panic.
func (c *Cluster) emitStreams(route string, prep *sql.Prepared, hit bool, streams []RowStream, streamCancel, cancel context.CancelFunc, start time.Time, qt *clusterTrace, baseRead, baseWritten, baseCmp int64) (*windowdb.Rows, error) {
	handoff := false
	defer func() {
		if !handoff {
			closeStreams(streams)
			streamCancel()
		}
	}()
	qt.live().SetPhase("draining")
	if prep.StreamsConcat() {
		handoff = true
		return windowdb.NewRows(&scatterSource{
			c: c, cols: streams[0].Columns(), streams: streams,
			streamCancel: streamCancel, cancel: cancel,
			prep: prep, cacheHit: hit, route: route, qt: qt,
			baseRead: baseRead, baseWritten: baseWritten, baseCmp: baseCmp,
			limit: prep.Limit(), start: start,
		}), nil
	}

	// DISTINCT or ORDER BY: the concatenation must materialize before the
	// first output row is known. Drain the node streams (still incremental
	// on the wire), finalize, stream the result.
	concat := storage.NewTable(storage.NewSchema(streams[0].Columns()...))
	var outcomes []*QueryOutcome
	for _, s := range streams {
		for {
			t, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			concat.Rows = append(concat.Rows, t)
		}
		if out := s.Outcome(); out != nil {
			outcomes = append(outcomes, out)
			baseRead += out.BlocksRead
			baseWritten += out.BlocksWritten
			baseCmp += out.Comparisons
		}
	}
	closeStreams(streams)
	streamCancel()
	handoff = true // streams fully drained and closed above
	fin := prep.FinalizeConcat(concat)
	cur := sql.TableCursor(fin.Table, fin)
	return windowdb.NewRows(&coordCursorSource{
		c: c, cur: cur, route: route, shardsUsed: len(streams), cacheHit: hit,
		baseRead: baseRead, baseWritten: baseWritten, baseCmp: baseCmp,
		cancel: cancel, start: start, qt: qt, outcomes: outcomes,
	}), nil
}

// streamReplica streams the whole statement from one node, round-robin.
func (c *Cluster) streamReplica(ctx context.Context, src string, prep *sql.Prepared, hit bool, cancel context.CancelFunc, start time.Time, qt *clusterTrace) (*windowdb.Rows, error) {
	c.replica.Add(1)
	node := int(c.rr.Add(1)-1) % len(c.shards)
	req := service.ShardQueryRequest{
		SQL: src, Mode: string(ModeFull),
		Fingerprint: prep.Fingerprint(),
	}
	streams, streamCancel, err := c.openStreams(ctx, 1, func(ctx context.Context, _ int) (RowStream, error) {
		return c.shards[node].QueryStream(ctx, req)
	})
	if err != nil {
		return nil, err
	}
	qt.live().SetPhase("draining")
	return windowdb.NewRows(&scatterSource{
		c: c, cols: streams[0].Columns(), streams: streams,
		streamCancel: streamCancel, cancel: cancel,
		route: "replica", prep: prep, cacheHit: hit, qt: qt,
		limit: -1, start: start,
	}), nil
}

// streamShuffle executes a key-divergent chain per segment: every segment
// runs scattered on all nodes, and between segments each node re-shuffles
// its output rows directly to its peers, hash-partitioned on the next
// segment's key. The coordinator drives one barriered round per non-final
// stage — a ShuffleRun returns only when every peer ingested its partition
// — and then merge-concatenates the final segment's streams exactly like
// scatter, so coordinator-resident rows stay bounded by the wire batch ×
// shard count while every intermediate row moves node-to-node. A failing
// stage cancels its peers (eachShard) and drops every node's buffered
// shuffle state before surfacing the error.
func (c *Cluster) streamShuffle(ctx context.Context, src string, prep *sql.Prepared, sp *sql.SegmentPlan, info *tableInfo, hit bool, cancel context.CancelFunc, start time.Time, qt *clusterTrace) (*windowdb.Rows, error) {
	c.shuffled.Add(1)
	id := fmt.Sprintf("%s-%d", c.shuffleNonce, c.shuffleSeq.Add(1))
	n := len(c.shards)

	segKey := func(i int) attrs.Set {
		var key attrs.Set
		for _, col := range sp.Keys[i] {
			key = key.Add(attrs.ID(col))
		}
		return key
	}
	// Stage list: when the shard key already covers the first segment's
	// key, segment 0 reads each node's local partition directly; otherwise
	// a raw stage (WHERE only) shuffles the base rows onto that key first.
	// Every later segment reads the inbox its predecessor filled. The
	// final stage always reads the inbox (a single covered segment would
	// have routed scatter), and streams instead of shuffling on.
	type stage struct {
		segment int // -1 = raw pass-through
		source  string
	}
	var stages []stage
	if info.key.SubsetOf(segKey(0)) {
		stages = append(stages, stage{segment: 0, source: "local"})
	} else {
		stages = append(stages, stage{segment: -1, source: "local"}, stage{segment: 0, source: "inbox"})
	}
	for s := 1; s < sp.Segments(); s++ {
		stages = append(stages, stage{segment: s, source: "inbox"})
	}

	// cleanup drops every node's buffered rounds of this shuffle: the
	// failure path's guarantee that an aborted query leaves no state
	// behind on the node tier. Detached from ctx — the query's context is
	// typically already cancelled when cleanup runs.
	cleanup := func() {
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer dcancel()
		_ = c.eachShard(dctx, func(ctx context.Context, i int, tr Transport) error {
			_ = tr.ShuffleDrop(ctx, id)
			return nil
		})
	}

	var mu sync.Mutex
	var baseRead, baseWritten, baseCmp int64
	for si := 0; si < len(stages)-1; si++ {
		st := stages[si]
		outKey := sp.Keys[stages[si+1].segment]
		qt.live().SetPhase(fmt.Sprintf("shuffle round %d of %d", si+1, len(stages)))
		roundStart := time.Now()
		nodeSpans := make([]*trace.Span, n)
		rowsOut := make([]int64, n)
		err := c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
			res, err := tr.ShuffleRun(ctx, service.ShuffleRunRequest{
				SQL: src, Fingerprint: prep.Fingerprint(),
				Plan: sp, Segment: st.segment, Source: st.source,
				ShuffleID: id, Round: si, Senders: n,
				OutKey: outKey, Peers: c.peerAddrs, Self: i,
				Deliver: c.deliverShuffle,
				TraceID: qt.id,
			})
			if err != nil {
				return err
			}
			qt.live().AddShuffleRows(res.RowsOut)
			mu.Lock()
			baseRead += res.BlocksRead
			baseWritten += res.BlocksWritten
			baseCmp += res.Comparisons
			nodeSpans[i] = shuffleNodeSpan(i, st.source, res)
			rowsOut[i] = res.RowsOut
			mu.Unlock()
			return nil
		})
		rs := trace.New(fmt.Sprintf("shuffle round %d", si), time.Since(roundStart))
		rs.SetInt("segment", int64(st.segment)).SetAttr("source", st.source)
		if err != nil {
			rs.SetAttr("error", err.Error())
		} else if ratio := imbalanceRatio(rowsOut); ratio > 0 {
			// Skew diagnostic: max/mean per-node output rows. 1 means the
			// round's repartition spread work evenly; N means one node did
			// everything. The last round's ratio also feeds the
			// windowdb_shuffle_round_imbalance gauge.
			rs.SetAttr("imbalance", fmt.Sprintf("%.3f", ratio))
			c.imbalance.Store(math.Float64bits(ratio))
		}
		for _, ns := range nodeSpans {
			rs.Add(ns)
		}
		qt.rounds = append(qt.rounds, rs)
		if err != nil {
			// Even a failed round leaves its trace: record what the query
			// looked like up to the failing stage before cleaning up.
			c.finishTrace(qt, &windowdb.QueryMetrics{
				Route: "shuffle", ShardsUsed: n, CacheHit: hit,
				Elapsed: time.Since(start),
			}, 0, nil, start, err, false)
			cleanup()
			return nil, err
		}
	}

	qt.live().SetPhase(fmt.Sprintf("segment %d of %d", sp.Segments(), sp.Segments()))
	freq := service.ShardQueryRequest{
		SQL: src, Mode: "segment", Plan: sp,
		Fingerprint: prep.Fingerprint(),
		ShuffleID:   id, Round: len(stages) - 1, Senders: n,
	}
	streams, streamCancel, err := c.openStreams(ctx, n, func(ctx context.Context, i int) (RowStream, error) {
		return c.shards[i].SegmentStream(ctx, freq)
	})
	if err != nil {
		cleanup()
		return nil, err
	}
	rows, err := c.emitStreams("shuffle", prep, hit, streams, streamCancel, cancel, start, qt, baseRead, baseWritten, baseCmp)
	if err != nil {
		// The final streams are closed by emitStreams' handoff guard; any
		// node that never served its SegmentStream still holds its buffer.
		cleanup()
		return nil, err
	}
	return rows, nil
}

// streamGather streams the table's raw rows from every shard into one
// coordinator-side table, runs the whole statement over it, and streams
// the coordinator cursor. Resident rows are the gathered set itself — the
// chain's input — never a second buffered copy: tuples decode straight
// off each shard's chunked stream (no transport materializes a whole
// response body), and the concatenation moves tuple references with each
// part released as it is consumed. The gather execution slot is held
// until the cursor is drained or closed.
// shuffleNodeSpan builds one node's span of a shuffle round from the
// stage result's phase breakdown: admission wait, input acquisition
// (inbox-wait on inbox-fed stages), chain execution and peer delivery.
func shuffleNodeSpan(i int, source string, res *service.ShuffleRunResult) *trace.Span {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	sp := trace.New(fmt.Sprintf("node %d", i), ms(res.QueuedMillis+res.InputMillis+res.ExecMillis+res.DeliverMillis))
	sp.SetInt("rows_in", res.RowsIn).SetInt("rows_out", res.RowsOut)
	if res.CacheHit {
		sp.SetAttr("plan_cache", "hit")
	} else {
		sp.SetAttr("plan_cache", "miss")
	}
	sp.Add(trace.New("admission.wait", ms(res.QueuedMillis)))
	in := trace.New("input", ms(res.InputMillis)).SetAttr("source", source)
	if source == "inbox" {
		in.SetAttr("inbox_wait", "true")
	}
	sp.Add(in)
	ex := trace.New("execute", ms(res.ExecMillis))
	ex.SetInt("spilled_blocks", res.BlocksWritten).SetInt("blocks_read", res.BlocksRead)
	sp.Add(ex)
	sp.Add(trace.New("deliver", ms(res.DeliverMillis)))
	return sp
}

func (c *Cluster) streamGather(ctx context.Context, prep *sql.Prepared, info *tableInfo, hit bool, cancel context.CancelFunc, start time.Time, qt *clusterTrace) (*windowdb.Rows, error) {
	c.gathered.Add(1)
	// Coordinator-side admission: each gather chain assumes the full unit
	// memory M, so at most GatherSlots of them (fetch included — the
	// gathered rows are the memory-heavy part) run at once.
	qt.live().SetPhase("queued")
	select {
	case c.gatherSlot <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	c.gatherInFlight.Add(1)
	// One gather slot is one full-unit-memory chain at the coordinator —
	// the cluster's memory accounting unit.
	qt.live().RaiseMemPeak(1)
	qt.live().SetPhase("gathering")
	release := func() {
		<-c.gatherSlot
		c.gatherInFlight.Add(-1)
	}
	// Until the slot is handed to the cursor, release it on every exit —
	// error or panic (recovered per-request by net/http): a panicking
	// fetch or chain must not consume one of the few gather slots for the
	// process lifetime.
	handoff := false
	defer func() {
		if !handoff {
			release()
		}
	}()
	// Each shard's goroutine accumulates its own rows as its stream
	// arrives (incremental on the wire — tuples decode one line at a
	// time, never a whole body); the concatenation below walks the parts
	// in shard-index order so the chain input's interleave is
	// deterministic per topology, releasing each part as it is consumed.
	fetchStart := time.Now()
	parts := make([][]storage.Tuple, len(c.shards))
	var mu sync.Mutex
	var schema *storage.Schema
	if err := c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
		st, err := tr.TableStream(ctx, info.name)
		if err != nil {
			return err
		}
		defer st.Close()
		mu.Lock()
		if schema == nil {
			schema = storage.NewSchema(st.Columns()...)
		}
		mu.Unlock()
		for {
			t, err := st.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			parts[i] = append(parts[i], t)
		}
	}); err != nil {
		return nil, err
	}
	gathered := storage.NewTable(schema)
	for i := range parts {
		gathered.Rows = append(gathered.Rows, parts[i]...)
		parts[i] = nil
	}
	if qt.id != "" {
		fetch := trace.New("gather.fetch", time.Since(fetchStart))
		fetch.SetInt("rows", int64(gathered.Len())).SetInt("shards", int64(len(c.shards)))
		qt.rounds = append(qt.rounds, fetch)
	}
	qt.live().SetPhase("executing")
	cur, err := prep.Open(ctx, sql.Input{Table: gathered})
	if err != nil {
		return nil, err
	}
	handoff = true
	qt.live().SetPhase("draining")
	return windowdb.NewRows(&coordCursorSource{
		c: c, cur: cur, route: "gather", shardsUsed: len(c.shards), cacheHit: hit,
		release: release, cancel: cancel, start: start, qt: qt,
	}), nil
}

func closeStreams(streams []RowStream) {
	for _, s := range streams {
		_ = s.Close()
	}
}

// GatherInFlight returns the number of gather-route chains currently
// holding a coordinator execution slot; tests assert it returns to zero
// after mid-stream cancellation.
func (c *Cluster) GatherInFlight() int64 { return c.gatherInFlight.Load() }

// scatterSource merge-concatenates per-node row streams in shard-index
// order: the stream currently draining contributes one in-flight row at
// the coordinator, the ones behind it at most their transport's read
// buffer. It serves the streaming scatter route, the shuffle route's
// final-segment merge, and (with a single stream) the replica route.
// LIMIT terminates the merge early, cancelling the remaining node streams.
type scatterSource struct {
	c            *Cluster
	cols         []storage.Column
	streams      []RowStream
	streamCancel context.CancelFunc
	cancel       context.CancelFunc // coordinator DefaultTimeout, when armed
	prep         *sql.Prepared
	cacheHit     bool
	route        string
	// Base counters: work observed before the merged streams opened (the
	// shuffle route's earlier rounds).
	baseRead, baseWritten, baseCmp int64
	limit                          int64 // remaining LIMIT budget; -1 = unlimited
	start                          time.Time
	qt                             *clusterTrace

	idx       int
	rows      int64
	outcomes  []*QueryOutcome
	completed bool // the merge reached its natural end (EOF or LIMIT)
	once      sync.Once
	meta      *windowdb.QueryMetrics
}

func (ss *scatterSource) Columns() []storage.Column { return ss.cols }

func (ss *scatterSource) Next() (storage.Tuple, error) {
	for ss.idx < len(ss.streams) && ss.limit != 0 {
		t, err := ss.streams[ss.idx].Next()
		if err == io.EOF {
			if out := ss.streams[ss.idx].Outcome(); out != nil {
				ss.outcomes = append(ss.outcomes, out)
			}
			ss.idx++
			continue
		}
		if err != nil {
			ss.finish(err)
			return nil, err
		}
		if ss.limit > 0 {
			ss.limit--
		}
		ss.rows++
		ss.qt.live().AddRowsEmitted(1)
		return t, nil
	}
	ss.completed = true
	ss.finish(nil)
	return nil, io.EOF
}

func (ss *scatterSource) Close() error {
	ss.finish(nil)
	return nil
}

func (ss *scatterSource) Metrics() *windowdb.QueryMetrics { return ss.meta }

func (ss *scatterSource) finish(err error) {
	ss.once.Do(func() {
		closeStreams(ss.streams)
		ss.streamCancel()
		meta := &windowdb.QueryMetrics{
			Plan:          ss.prep.Plan(),
			FinalSort:     "none",
			Parallelism:   1,
			CacheHit:      ss.cacheHit,
			Route:         ss.route,
			ShardsUsed:    len(ss.streams),
			Elapsed:       time.Since(ss.start),
			BlocksRead:    ss.baseRead,
			BlocksWritten: ss.baseWritten,
			Comparisons:   ss.baseCmp,
		}
		if meta.Plan != nil {
			meta.Chain = meta.Plan.PaperString()
		}
		for _, out := range ss.outcomes {
			meta.BlocksRead += out.BlocksRead
			meta.BlocksWritten += out.BlocksWritten
			meta.Comparisons += out.Comparisons
		}
		if ss.route == "replica" && len(ss.outcomes) > 0 {
			meta.FinalSort = ss.outcomes[0].FinalSort
		}
		ss.c.finishTrace(ss.qt, meta, ss.rows, ss.outcomes, ss.start, err, err == nil && ss.completed)
		ss.meta = meta
		killed := ss.qt != nil && ss.qt.entry.Killed()
		if ss.qt != nil {
			ss.c.reg.Remove(ss.qt.entry)
		}
		switch {
		case killed:
			// DELETE /debug/queries/{id} fired the stored cancel; the
			// stream error it induced is the kill taking effect, not an
			// engine fault.
			ss.c.aborted.Add(1)
		case err != nil:
			ss.c.failures.Add(1)
		case !ss.completed:
			// Closed before the merge's natural end: a client disconnect
			// or deliberate truncation, neither success nor failure.
			ss.c.aborted.Add(1)
		default:
			ss.c.queries.Add(1)
		}
		if ss.cancel != nil {
			ss.cancel()
		}
	})
}

// coordCursorSource streams a coordinator-side execution cursor — the
// gather route's chain, or a finalized scatter concatenation — adding the
// cluster bookkeeping: node counter baselines, the gather slot release,
// and the routing metadata.
type coordCursorSource struct {
	c           *Cluster
	cur         *sql.Cursor
	route       string
	shardsUsed  int
	cacheHit    bool
	baseRead    int64
	baseWritten int64
	baseCmp     int64
	release     func() // gather slot, when held
	cancel      context.CancelFunc
	start       time.Time
	qt          *clusterTrace
	outcomes    []*QueryOutcome

	rows      int64
	completed bool // a terminal Next (io.EOF) was observed
	once      sync.Once
	meta      *windowdb.QueryMetrics
}

func (cs *coordCursorSource) Columns() []storage.Column { return cs.cur.Columns() }

func (cs *coordCursorSource) Next() (storage.Tuple, error) {
	t, err := cs.cur.Next()
	switch {
	case err == io.EOF:
		cs.completed = true
		cs.finish(nil)
	case err != nil:
		cs.finish(err)
	default:
		cs.rows++
		cs.qt.live().AddRowsEmitted(1)
	}
	return t, err
}

func (cs *coordCursorSource) Close() error {
	cs.finish(nil)
	return cs.cur.Close()
}

func (cs *coordCursorSource) Metrics() *windowdb.QueryMetrics { return cs.meta }

func (cs *coordCursorSource) finish(err error) {
	cs.once.Do(func() {
		if cs.release != nil {
			cs.release()
		}
		meta := windowdb.MetaFromResult(cs.cur.Meta())
		meta.Route = cs.route
		meta.ShardsUsed = cs.shardsUsed
		meta.CacheHit = cs.cacheHit
		meta.BlocksRead += cs.baseRead
		meta.BlocksWritten += cs.baseWritten
		meta.Comparisons += cs.baseCmp
		meta.Elapsed = time.Since(cs.start)
		cs.c.finishTrace(cs.qt, meta, cs.rows, cs.outcomes, cs.start, err, err == nil && cs.completed)
		cs.meta = meta
		killed := cs.qt != nil && cs.qt.entry.Killed()
		if cs.qt != nil {
			cs.c.reg.Remove(cs.qt.entry)
		}
		switch {
		case killed:
			cs.c.aborted.Add(1)
		case err != nil:
			cs.c.failures.Add(1)
		case !cs.completed:
			cs.c.aborted.Add(1)
		default:
			cs.c.queries.Add(1)
		}
		if cs.cancel != nil {
			cs.cancel()
		}
	})
}

// prepare resolves src through the coordinator's per-table-invalidated
// plan cache.
func (c *Cluster) prepare(src string) (*sql.Prepared, bool, error) {
	key := normalizeSQL(src)
	if prep, ok := c.cache.get(key); ok {
		return prep, true, nil
	}
	prep, err := c.coord.Prepare(src)
	if err != nil {
		return nil, false, err
	}
	c.cache.put(key, prep, c.coord.Generation)
	return prep, false, nil
}

// Health fans out to every shard and returns the first failure.
func (c *Cluster) Health(ctx context.Context) error {
	return c.eachShard(ctx, func(ctx context.Context, i int, tr Transport) error {
		if err := tr.Health(ctx); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		return nil
	})
}
