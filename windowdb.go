// Package windowdb is the public face of this repository: a window-function
// query engine reproducing "Optimization of Analytic Window Functions"
// (Cao, Chan, Li, Tan; PVLDB 5(11), 2012).
//
// The engine evaluates SQL:2003 analytic window functions over in-memory
// tables with a simulated block-I/O substrate, and plans multi-function
// queries with the paper's cover-set based optimizer (CSO) or with the
// baselines it is evaluated against (BFO, ORCL, PSQL). The three tuple
// reordering operators — Full Sort, Hashed Sort and Segmented Sort — are
// faithful streaming implementations with exact block-I/O accounting.
//
// The package also defines the repository-wide result surface: the
// Queryer interface (QueryContext returning an incremental Rows cursor,
// plus PrepareContext) that Engine, service.Service, service.Client and
// shard.Cluster all implement, and the sqldriver package adapts to
// database/sql.
//
// Quick start:
//
//	eng := windowdb.New(windowdb.Config{})
//	eng.Register("emptab", table)
//	rows, err := eng.QueryContext(ctx, `SELECT empnum, rank() OVER (ORDER BY salary DESC) AS r FROM emptab`)
//	defer rows.Close()
//	for rows.Next() {
//		var emp, r int64
//		_ = rows.Scan(&emp, &r)
//	}
//
// Query returns the materialized *Result of the original API, as a thin
// wrapper that drains the cursor. See the examples directory for complete
// programs and DESIGN.md for the system inventory.
package windowdb

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/pagestore"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/window"
)

// Re-exported scheme names.
const (
	SchemeCSO  = sql.SchemeCSO
	SchemeBFO  = sql.SchemeBFO
	SchemeORCL = sql.SchemeORCL
	SchemePSQL = sql.SchemePSQL
)

// Config parameterizes an Engine. The zero value is usable: CSO planning,
// 64 MB unit reorder memory, 8 KiB blocks, memory-backed spill store, and
// GOMAXPROCS-degree parallel chain execution.
type Config struct {
	// Scheme selects the plan generator for multi-window queries.
	Scheme sql.Scheme
	// SortMemBytes is the unit reorder memory M: the budget given to every
	// tuple reordering operation in a chain (Section 6.1 of the paper).
	SortMemBytes int
	// BlockSize is the simulated page size.
	BlockSize int
	// FileBackedSpill spills sort runs and hash buckets to temp files in
	// TempDir instead of accounting-only memory buffers.
	FileBackedSpill bool
	TempDir         string
	// DisableHS / DisableSS restrict the optimizer to the paper's CSO(v1) /
	// CSO(v2) ablation variants.
	DisableHS bool
	DisableSS bool
	// MFVBypass enables the Hashed Sort most-frequent-value optimization
	// (Section 3.2), using catalog statistics.
	MFVBypass bool
	// Parallelism is the worker degree of the parallel multi-window
	// executor (exec.ParallelRun): EvaluateWindows and Query route through
	// it when the resolved degree exceeds 1. 0 is the GOMAXPROCS
	// sequential-compatible default (identical derived values and row
	// multiset; row order follows partition index, so ORDER BY queries are
	// sorted explicitly); 1 or a negative value forces the sequential
	// executor.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.SortMemBytes <= 0 {
		c.SortMemBytes = 64 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = pagestore.DefaultBlockSize
	}
	if c.Scheme == "" {
		c.Scheme = sql.SchemeCSO
	}
	// Resolve the parallel degree once, with exec.Config.Degree's mapping
	// (0 = GOMAXPROCS, negative = sequential), so every consumer — the
	// executor routing and the serving layer's per-chain memory accounting
	// — sees the same concrete value.
	c.Parallelism = exec.Config{Parallelism: c.Parallelism}.Degree()
	return c
}

// Engine owns a catalog of tables and executes window queries against it.
//
// Concurrency contract: an Engine is safe for unrestricted concurrent use.
// Query/QueryContext, Prepare, EvaluateWindows, Plan and the catalog
// accessors may run from any number of goroutines, concurrently with
// Register. Registered tables are treated as immutable — callers must not
// mutate a *storage.Table after handing it to Register; replacing a table
// re-registers under the same name and advances the catalog generation
// (Generation), invalidating prepared statements built on the old entry.
// Queries that already hold the old entry finish against the old (still
// immutable) table — the snapshot-at-lookup semantics of the catalog.
// Lazily computed statistics (distinct counts, MFVs) are mutex-guarded
// inside each catalog entry and computed at most once per key.
type Engine struct {
	cfg Config
	cat *catalog.Catalog
	hub *delta.Hub
	// appendMu serializes Append's catalog-swap + hub-publish pair, and
	// SubscribeStatement's register + snapshot pair, so subscriptions see
	// every batch exactly once (either in the snapshot or on the channel).
	appendMu sync.Mutex
}

// Engine implements Queryer; the service, client and cluster backends
// assert the same in their packages.
var _ Queryer = (*Engine)(nil)

// New creates an engine.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), cat: catalog.New(), hub: delta.NewHub()}
}

// Register adds (or replaces) a table under name. Statistics (distinct
// counts, most-frequent values) are computed lazily on first use.
func (e *Engine) Register(name string, t *storage.Table) {
	e.cat.Register(name, t)
}

// RegisterStub adds (or replaces) a schema-only catalog entry backed by
// externally supplied statistics: the coordinator side of sharded
// registration. Planning sees the schema, B(R), |R| and D(·) of a table
// whose rows live on shard nodes; executing a statement prepared on a stub
// directly reads zero rows — cluster coordinators execute through the
// scatter (shard-local) or gather (sql.Input.Table) paths instead.
func (e *Engine) RegisterStub(name string, schema *storage.Schema, stats catalog.TableStats) {
	e.cat.RegisterStub(name, schema, stats)
}

// Tables lists registered table names.
func (e *Engine) Tables() []string { return e.cat.Names() }

// Table returns a registered table.
func (e *Engine) Table(name string) (*storage.Table, error) {
	entry, err := e.cat.Lookup(name)
	if err != nil {
		return nil, err
	}
	return entry.Table(), nil
}

// Result re-exports the SQL result type: the fully-materialized form the
// original API served and Query still returns, now assembled by draining
// the streaming cursor.
type Result = sql.Result

// Query parses, plans and executes one window query block, returning the
// materialized result. It is the compatibility wrapper over the streaming
// surface: QueryContext's Rows cursor, drained into a table.
func (e *Engine) Query(src string) (*Result, error) {
	rows, err := e.QueryContext(context.Background(), src)
	if err != nil {
		return nil, err
	}
	return DrainResult(rows)
}

// QueryContext executes one query and returns an incremental Rows cursor
// over its output — the Queryer surface shared with service.Service,
// service.Client and shard.Cluster. ctx is threaded down through the
// executor and checked at chain-step boundaries (in the parallel executor,
// inside every worker's per-partition pipeline) while the chain runs, and
// at a fixed row stride while the cursor streams, so a runaway query stops
// shortly after ctx is done.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Rows, error) {
	if inner, ok := StripExplainAnalyze(src); ok {
		return ExplainAnalyzeRows(ctx, e, inner)
	}
	if sql.IsInsert(src) {
		return e.insertRows(ctx, src)
	}
	if inner, ok := StripSubscribe(src); ok {
		return e.subscribeRows(ctx, inner)
	}
	start := time.Now()
	r := e.runner()
	p, err := r.Prepare(src)
	if err != nil {
		return nil, err
	}
	cur, err := p.Open(ctx, sql.Input{})
	if err != nil {
		return nil, err
	}
	return NewRows(&cursorSource{cur: cur, start: start, traceID: trace.FromContext(ctx)}), nil
}

// PrepareContext validates, binds and plans a statement for repeated
// cursor execution: the Queryer counterpart of Prepare.
func (e *Engine) PrepareContext(ctx context.Context, src string) (Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	return &engineStmt{prep: p}, nil
}

// engineStmt adapts a *sql.Prepared to the Stmt interface.
type engineStmt struct {
	prep *sql.Prepared
}

func (s *engineStmt) QueryContext(ctx context.Context) (*Rows, error) {
	start := time.Now()
	cur, err := s.prep.Open(ctx, sql.Input{})
	if err != nil {
		return nil, err
	}
	return NewRows(&cursorSource{cur: cur, start: start, traceID: trace.FromContext(ctx)}), nil
}

func (s *engineStmt) Close() error { return nil }

// cursorSource adapts the sql package's execution cursor to the public
// RowSource contract, translating its metadata into QueryMetrics.
type cursorSource struct {
	cur     *sql.Cursor
	start   time.Time
	traceID string
	meta    *QueryMetrics
}

func (cs *cursorSource) Columns() []storage.Column { return cs.cur.Columns() }

func (cs *cursorSource) Next() (storage.Tuple, error) {
	t, err := cs.cur.Next()
	if err != nil {
		cs.finish()
	}
	return t, err
}

func (cs *cursorSource) Close() error {
	cs.finish()
	return cs.cur.Close()
}

func (cs *cursorSource) finish() {
	if cs.meta != nil {
		return
	}
	cs.meta = MetaFromResult(cs.cur.Meta())
	cs.meta.Elapsed = time.Since(cs.start)
	cs.meta.TraceID = cs.traceID
	cs.meta.Trace = ExecTrace(cs.meta)
}

func (cs *cursorSource) Metrics() *QueryMetrics { return cs.meta }

// MetaFromResult translates a sql.Result's metadata (the table, if any, is
// ignored) into the public QueryMetrics shape. Serving layers use it when
// adapting their execution paths to the Rows surface.
func MetaFromResult(res *sql.Result) *QueryMetrics {
	m := &QueryMetrics{
		Plan:            res.Plan,
		Exec:            res.Metrics,
		FinalSort:       res.FinalSort,
		SatisfiedPrefix: res.SatisfiedPrefix,
		Parallelism:     res.Parallelism,
		EstRows:         res.EstRows,
		Watermark:       res.Watermark,
		SharedScan:      res.SharedScan,
	}
	if res.Plan != nil {
		m.Chain = res.Plan.PaperString()
	}
	if res.Metrics != nil {
		m.BlocksRead = res.Metrics.BlocksRead
		m.BlocksWritten = res.Metrics.BlocksWritten
		m.Comparisons = res.Metrics.Comparisons
	}
	return m
}

// DrainResult consumes a Rows cursor into the materialized Result shape of
// the original API: the table plus every QueryMetrics field Result carries
// (the inverse of MetaFromResult). The cursor is closed when DrainResult
// returns.
func DrainResult(rows *Rows) (*Result, error) {
	defer rows.Close()
	t := storage.NewTable(storage.NewSchema(rows.ColumnTypes()...))
	for rows.Next() {
		t.Rows = append(t.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	res := &Result{Table: t, FinalSort: "none", Parallelism: 1}
	if m := rows.Metrics(); m != nil {
		res.Plan = m.Plan
		res.Metrics = m.Exec
		res.FinalSort = m.FinalSort
		res.SatisfiedPrefix = m.SatisfiedPrefix
		res.Parallelism = m.Parallelism
		res.EstRows = m.EstRows
		res.Watermark = m.Watermark
		res.SharedScan = m.SharedScan
	}
	return res, nil
}

// Prepare parses, binds and plans a query without executing it. The
// returned statement executes with this engine's scheme and resources, any
// number of times and concurrently; it is valid while Generation is
// unchanged (re-registering any table invalidates it — execution then reads
// the superseded catalog entry). Serving layers cache these.
func (e *Engine) Prepare(src string) (*sql.Prepared, error) {
	r := e.runner()
	return r.Prepare(src)
}

// Generation returns the engine's catalog generation: the count of Register
// calls. Prepared statements record the generation they were built under.
func (e *Engine) Generation() uint64 { return e.cat.Generation() }

// ResolvedConfig returns the engine's configuration with defaults applied —
// the actual unit reorder memory, block size and parallel degree queries
// run with. Serving layers size admission-control slots from it.
func (e *Engine) ResolvedConfig() Config { return e.cfg }

func (e *Engine) runner() sql.Runner {
	return sql.Runner{
		Catalog:   e.cat,
		Scheme:    e.cfg.Scheme,
		Exec:      e.execConfig(),
		DisableHS: e.cfg.DisableHS,
		DisableSS: e.cfg.DisableSS,
	}
}

// execConfig assembles the executor configuration; the MFV callback is
// wired only on demand.
func (e *Engine) execConfig() exec.Config {
	cfg := exec.Config{
		MemoryBytes: e.cfg.SortMemBytes,
		BlockSize:   e.cfg.BlockSize,
		FileBacked:  e.cfg.FileBackedSpill,
		TempDir:     e.cfg.TempDir,
		Parallelism: e.cfg.Parallelism,
	}
	// Resolve the 0 = GOMAXPROCS default here so downstream routing only
	// has to compare against 1.
	cfg.Parallelism = cfg.Degree()
	return cfg
}

// Plan plans (without executing) the given window function specs over a
// registered table using the engine's scheme.
func (e *Engine) Plan(table string, specs []window.Spec) (*core.Plan, error) {
	entry, err := e.cat.Lookup(table)
	if err != nil {
		return nil, err
	}
	ws := make([]core.WF, len(specs))
	for i, s := range specs {
		ws[i] = s.WF(i)
	}
	opt := core.Options{
		Cost:      entry.CostParams(e.cfg.SortMemBytes, e.cfg.BlockSize),
		DisableHS: e.cfg.DisableHS,
		DisableSS: e.cfg.DisableSS,
	}
	switch e.cfg.Scheme {
	case sql.SchemeBFO:
		return core.BFO(ws, core.Unordered(), opt)
	case sql.SchemeORCL:
		return core.ORCL(ws, core.Unordered(), opt)
	case sql.SchemePSQL:
		return core.PSQL(ws, core.Unordered())
	case sql.SchemeCSO, "":
		return core.CSO(ws, core.Unordered(), opt)
	}
	return nil, fmt.Errorf("windowdb: unknown scheme %q", e.cfg.Scheme)
}

// EvaluateWindows plans and executes a set of window functions over a
// registered table, returning the table extended with one derived column
// per function (in chain order) plus execution metrics.
func (e *Engine) EvaluateWindows(table string, specs []window.Spec) (*storage.Table, *exec.Metrics, error) {
	entry, err := e.cat.Lookup(table)
	if err != nil {
		return nil, nil, err
	}
	plan, err := e.Plan(table, specs)
	if err != nil {
		return nil, nil, err
	}
	cfg := e.execConfig()
	cfg.Distinct = entry.Distinct
	if e.cfg.MFVBypass {
		mem := e.cfg.SortMemBytes
		cfg.MFV = func(key attrs.Set) map[string]bool {
			return entry.MFVs(key, mem)
		}
	}
	if cfg.Parallelism > 1 {
		return exec.ParallelRun(entry.Table(), specs, plan, cfg, cfg.Parallelism)
	}
	return exec.Run(entry.Table(), specs, plan, cfg)
}

// EvaluateParallel evaluates a single window function with Section 3.5's
// hash-partitioned parallelism.
func (e *Engine) EvaluateParallel(table string, spec window.Spec, degree int) (*storage.Table, error) {
	entry, err := e.cat.Lookup(table)
	if err != nil {
		return nil, err
	}
	return exec.ParallelEvaluate(entry.Table(), spec, degree, e.execConfig())
}

// Stats exposes a table's catalog statistics for cost-model inspection.
func (e *Engine) Stats(table string) (*catalog.Entry, error) {
	return e.cat.Lookup(table)
}
