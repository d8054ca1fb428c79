package sql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/window"
)

// Prepared is a query carried through every phase that does not depend on
// the data: parse, table lookup, window binding, CSO (or baseline)
// planning, projection and ORDER BY resolution, and WHERE validation. What
// remains — filtering, chain execution, projection, DISTINCT, the final
// sort — happens in Open (cursor.go), which may be called many times and
// concurrently: a Prepared is immutable after Prepare, and every execution
// builds its own spill stores and row buffers. This is the plan-once /
// execute-many seam the serving layer's plan cache stores.
//
// A Prepared captures the catalog entry and the catalog generation at
// prepare time. Generation returns the latter so caches can drop plans
// whose table was re-registered; executing a stale Prepared is
// memory-safe (the old entry and its table are immutable) but reads the
// superseded data.
type Prepared struct {
	src    string
	fp     string // Fingerprint(src), computed once at prepare
	q      *Query
	entry  *catalog.Entry
	gen    uint64
	scheme Scheme
	cfg    exec.Config
	// The CSO ablation switches the statement was planned under; segment
	// sub-planning (SegmentRunner) honors the same restrictions.
	disableHS bool
	disableSS bool

	specs      []window.Spec
	plan       *core.Plan // nil when the query has no window functions
	alignOrder attrs.Seq
	wfCol      map[int]int // wf ID -> column index in the executed table
	// shareable marks a chain that splits at the subplan seam: one leading
	// heavy reorder, every later step reorder-free, sequential execution
	// (see subplan.go).
	shareable bool

	outCols []storage.Column
	pick    []int // executed-table source column per output column

	orderKey attrs.Seq // final ORDER BY over the output schema

	// Memoized SegmentRunners keyed by shipped-plan fingerprint: a shard
	// node executes one statement's shuffle stages many times (every
	// round, then the final stream), all against the same immutable
	// segmentation — validate and sub-plan once. Guarded by segMu; the
	// rest of the struct stays immutable after Prepare.
	segMu      sync.Mutex
	segRunners map[string]*SegmentRunner
}

// SQL returns the original query text.
func (p *Prepared) SQL() string { return p.src }

// Table returns the FROM table's name as written in the query.
func (p *Prepared) Table() string { return p.q.Table }

// Plan returns the planned window-function chain (nil for window-less
// queries).
func (p *Prepared) Plan() *core.Plan { return p.plan }

// ShardLocal reports whether this statement may execute independently on
// shards hash-partitioned on shardKey, with the results concatenated and
// finalized (FinalizeConcat) at a coordinator, and still produce the
// single-engine values. The condition is exec.ChainCommonKey's: every
// window function's partitioning key must contain the shard key, so no
// window partition spans shards. WHERE filtering and projection are
// row-local and always distribute; DISTINCT, ORDER BY and LIMIT are not
// shard-local and belong to the coordinator's finalize step. Window-less
// statements are trivially shard-local.
func (p *Prepared) ShardLocal(shardKey attrs.Set) bool {
	if shardKey.Empty() {
		return false
	}
	if p.plan == nil {
		return true
	}
	return shardKey.SubsetOf(exec.ChainCommonKey(p.plan))
}

// Generation returns the catalog generation the statement was prepared
// under.
func (p *Prepared) Generation() uint64 { return p.gen }

// Fingerprint returns the statement's wire fingerprint (see the package
// Fingerprint function): what a coordinator ships with scatter and shuffle
// requests so nodes resolve their cached plan without re-normalizing the
// text.
func (p *Prepared) Fingerprint() string { return p.fp }

// Fingerprint hashes statement text into the short identifier shipped on
// the cluster's control plane: FNV-64a over the raw source, hex-encoded.
// It identifies text, not plans — coordinator and node prepare from the
// same shipped SQL string, so equal text means an equal plan under an
// equal catalog generation (which the plan cache checks separately).
func Fingerprint(src string) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(src); i++ {
		h ^= uint64(src[i])
		h *= prime64
	}
	var out [16]byte
	const hexdigits = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		out[i] = hexdigits[(h>>uint(60-4*i))&0xf]
	}
	return string(out[:])
}

// Limit returns the statement's LIMIT, -1 when absent.
func (p *Prepared) Limit() int64 { return p.q.Limit }

// StreamsConcat reports whether the finalize phase over a shard
// concatenation is order-insensitive and row-local — no DISTINCT and no
// ORDER BY — so a coordinator may emit the concatenation of per-shard
// output streams incrementally (applying LIMIT by early termination)
// instead of buffering it. DISTINCT and ORDER BY force materialization at
// the concatenating side.
func (p *Prepared) StreamsConcat() bool {
	return !p.q.Distinct && len(p.orderKey) == 0
}

// Prepare parses, binds and plans src against the runner's catalog without
// executing it. Parse failures carry the ErrParse class, unknown tables
// wrap catalog.ErrUnknownTable, and every other error a malformed-but-
// parseable query can provoke (unknown columns, bad window clauses,
// unsupported predicates) carries ErrBind — execution errors after a
// successful Prepare are engine faults.
func (r *Runner) Prepare(src string) (*Prepared, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	gen := r.Catalog.Generation()
	entry, err := r.Catalog.Lookup(q.Table)
	if err != nil {
		return nil, err
	}
	schema := entry.Table().Schema
	p := &Prepared{
		src:       src,
		fp:        Fingerprint(src),
		q:         q,
		entry:     entry,
		gen:       gen,
		scheme:    r.Scheme,
		cfg:       r.Exec,
		disableHS: r.DisableHS,
		disableSS: r.DisableSS,
		wfCol:     map[int]int{},
	}

	if q.Where != nil {
		if err := checkPredicate(q.Where, schema); err != nil {
			return nil, classify(ErrBind, err)
		}
	}

	// Bind the window calls in SELECT order.
	windowItem := make([]int, len(q.Items)) // item index -> wf ID or -1
	for i, item := range q.Items {
		windowItem[i] = -1
		if item.Window == nil {
			continue
		}
		name := item.Alias
		if name == "" {
			name = item.Window.Func
		}
		spec, err := BindWindowCall(item.Window, schema, name)
		if err != nil {
			return nil, classify(ErrBind, err)
		}
		if err := spec.Validate(schema); err != nil {
			return nil, classify(ErrBind, err)
		}
		windowItem[i] = len(p.specs)
		p.specs = append(p.specs, spec)
	}

	// Section 5 integration: resolve the longest ORDER BY prefix whose
	// columns are base-table columns of the output; CSO aligns its chain
	// toward it. Resolution must honor SELECT-list aliases (an alias can
	// shadow a base column name), so it goes through the projected names,
	// not the base schema directly.
	for _, item := range q.OrderBy {
		c, isBase := resolveOutputColumn(q.Items, schema, item.Column)
		if !isBase {
			break
		}
		p.alignOrder = append(p.alignOrder, attrs.Elem{Attr: attrs.ID(c), Desc: item.Desc, NullsFirst: item.NullsFirst})
	}

	if len(p.specs) > 0 {
		ws := make([]core.WF, len(p.specs))
		for i, s := range p.specs {
			ws[i] = s.WF(i)
		}
		opt := core.Options{
			Cost:      entry.CostParams(r.Exec.MemoryBytes, r.Exec.BlockSize),
			DisableHS: r.DisableHS,
			DisableSS: r.DisableSS,
		}
		var plan *core.Plan
		switch r.Scheme {
		case SchemeBFO:
			plan, err = core.BFO(ws, core.Unordered(), opt)
		case SchemeORCL:
			plan, err = core.ORCL(ws, core.Unordered(), opt)
		case SchemePSQL:
			plan, err = core.PSQL(ws, core.Unordered())
		case SchemeCSO, "":
			plan, err = core.CSOAligned(ws, core.Unordered(), opt, p.alignOrder)
			// Alignment toward the ORDER BY cannot pay off when the parallel
			// path will concatenate partitions (the output loses the chain's
			// nominal order and is fully sorted anyway); take CSO's cheapest
			// unaligned chain instead of paying for a dead alignment.
			if err == nil && len(p.alignOrder) > 0 && r.Exec.Parallelism > 1 && exec.Concatenates(plan) {
				plan, err = core.CSO(ws, core.Unordered(), opt)
			}
		default:
			return nil, fmt.Errorf("sql: unknown scheme %q", r.Scheme)
		}
		if err != nil {
			return nil, err
		}
		if r.Scheme == SchemeCSO || r.Scheme == "" {
			// Factor-window rewrite (core/rewrite.go): keep the heavy-first
			// variant when it validates and costs strictly less.
			if alt := core.RewriteAlternative(ws, core.Unordered(), opt, plan); alt != nil {
				plan = alt
			}
		}
		p.plan = plan
		for pos, step := range plan.Steps {
			p.wfCol[step.WF.ID] = schema.Len() + pos
		}
		p.shareable = shareableChain(plan) && r.Exec.Parallelism <= 1
	}

	// Projection: the executed table is the base schema extended with one
	// derived column per chain step, so output columns resolve statically.
	for i, item := range q.Items {
		switch {
		case item.Star:
			for c := 0; c < schema.Len(); c++ {
				p.outCols = append(p.outCols, schema.Columns[c])
				p.pick = append(p.pick, c)
			}
		case item.Window != nil:
			srcCol := p.wfCol[windowItem[i]]
			col := p.specs[windowItem[i]].OutputColumn()
			if item.Alias != "" {
				col.Name = item.Alias
			}
			p.outCols = append(p.outCols, col)
			p.pick = append(p.pick, srcCol)
		default:
			c := schema.ColIndex(item.Column)
			if c < 0 {
				return nil, classify(ErrBind, fmt.Errorf("sql: unknown column %q", item.Column))
			}
			col := schema.Columns[c]
			if item.Alias != "" {
				col.Name = item.Alias
			}
			p.outCols = append(p.outCols, col)
			p.pick = append(p.pick, c)
		}
	}

	// Final ORDER BY over output columns.
	outSchema := storage.NewSchema(p.outCols...)
	for _, item := range q.OrderBy {
		c := outSchema.ColIndex(item.Column)
		if c < 0 {
			return nil, classify(ErrBind, fmt.Errorf("sql: ORDER BY column %q not in output", item.Column))
		}
		p.orderKey = append(p.orderKey, attrs.Elem{Attr: attrs.ID(c), Desc: item.Desc, NullsFirst: item.NullsFirst})
	}
	return p, nil
}

// shareableChain reports whether a planned chain is a single heavy reorder
// followed by reorder-free evaluation — the physical shape the subplan
// seam (subplan.go) can split and the shared-subplan cache can serve.
func shareableChain(plan *core.Plan) bool {
	if plan == nil || len(plan.Steps) == 0 {
		return false
	}
	lead := plan.Steps[0].Reorder
	if lead != core.ReorderFS && lead != core.ReorderHS {
		return false
	}
	for _, s := range plan.Steps[1:] {
		if s.Reorder != core.ReorderNone {
			return false
		}
	}
	return true
}

// FinalizeConcat applies the coordinator-side phases — DISTINCT, the final
// ORDER BY and LIMIT — to the concatenation of shard-local outputs
// (Input.ShardLocal cursors drained in shard-index order). The
// concatenation voids any ordering the per-shard chains produced, so an
// ORDER BY is always satisfied by a full sort, exactly as after a
// partition-concatenating parallel chain. t is finalized in place and
// returned inside the Result.
func (p *Prepared) FinalizeConcat(t *storage.Table) *Result {
	result := &Result{FinalSort: "none", Parallelism: 1, Plan: p.plan, Table: t}
	if p.q.Distinct {
		distinctRows(t)
	}
	if len(p.orderKey) > 0 {
		result.FinalSort = "full"
		key := p.orderKey
		sort.SliceStable(t.Rows, func(i, j int) bool {
			return storage.CompareSeq(t.Rows[i], t.Rows[j], key) < 0
		})
	}
	if p.q.Limit >= 0 && int64(t.Len()) > p.q.Limit {
		t.Rows = t.Rows[:p.q.Limit]
	}
	return result
}

// runChain runs the data-dependent phases up to (and including) the window
// chain: WHERE filtering and chain execution. The returned Result carries
// the plan, metrics and parallel degree but no table yet.
func (p *Prepared) runChain(ctx context.Context, base *storage.Table) (*storage.Table, *Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	windowed, err := p.filterWhere(base)
	if err != nil {
		return nil, nil, err
	}
	result := &Result{FinalSort: "none", Parallelism: 1, EstRows: p.entry.Rows()}
	executed := windowed
	if p.plan != nil {
		out, metrics, par, err := p.runPlan(ctx, windowed, p.plan)
		if err != nil {
			return nil, nil, err
		}
		executed = out
		result.Plan = p.plan
		result.Metrics = metrics
		result.Parallelism = par
	}
	return executed, result, nil
}

// filterWhere applies the statement's WHERE clause to base, producing the
// windowed table WT (Section 5's loose integration: all clauses except
// ORDER BY run before the windows). Statements without a WHERE return base
// unchanged.
func (p *Prepared) filterWhere(base *storage.Table) (*storage.Table, error) {
	if p.q.Where == nil {
		return base, nil
	}
	schema := base.Schema
	wt := storage.NewTable(schema)
	for _, row := range base.Rows {
		v, err := evalPredicate(p.q.Where, row, schema)
		if err != nil {
			return nil, err
		}
		if v == tTrue {
			wt.Rows = append(wt.Rows, row)
		}
	}
	return wt, nil
}

// runPlan executes a planned chain (p.plan or a segment sub-plan) over in
// with the prepared execution config, returning the extended table, the
// executor metrics, and the parallel degree the chain actually ran with.
//
// Parallelism must be set explicitly (> 1) to engage the parallel chain
// executor: a zero-value Runner stays on the sequential path (facades that
// want the GOMAXPROCS default resolve it before building the Runner, as
// windowdb.Engine does).
func (p *Prepared) runPlan(ctx context.Context, in *storage.Table, plan *core.Plan) (*storage.Table, *exec.Metrics, int, error) {
	cfg := p.cfg
	if cfg.Distinct == nil {
		cfg.Distinct = p.entry.Distinct
	}
	if cfg.Parallelism > 1 {
		out, metrics, err := exec.ParallelRunContext(ctx, in, p.specs, plan, cfg, cfg.Parallelism)
		par := 1
		if err == nil && metrics.PartitionedSteps > 0 {
			par = cfg.Parallelism
		}
		return out, metrics, par, err
	}
	out, metrics, err := exec.RunContext(ctx, in, p.specs, plan, cfg)
	return out, metrics, 1, err
}

// project materializes the projection of every executed row.
func (p *Prepared) project(executed *storage.Table) *storage.Table {
	outTable := storage.NewTable(storage.NewSchema(p.outCols...))
	outTable.Rows = make([]storage.Tuple, executed.Len())
	for ri, row := range executed.Rows {
		outTable.Rows[ri] = p.projectRow(row)
	}
	return outTable
}

// projectRow maps one executed-table row to the output schema.
func (p *Prepared) projectRow(row storage.Tuple) storage.Tuple {
	t := make(storage.Tuple, len(p.pick))
	for ci, src := range p.pick {
		t[ci] = row[src]
	}
	return t
}

// finalize applies the statement's terminal phases in place: DISTINCT, the
// final ORDER BY (with Section 5's sort avoidance) and LIMIT.
func (p *Prepared) finalize(outTable *storage.Table, result *Result) {
	// DISTINCT: deduplicate projected rows (evaluated after the window
	// functions, as in the paper's Section 1/5 decomposition; NULLs compare
	// equal, per SQL DISTINCT semantics).
	if p.q.Distinct {
		distinctRows(outTable)
	}

	// Final ORDER BY over output columns. When the chain's output ordering
	// already satisfies a prefix of the key (Section 5), the sort is
	// avoided or downgraded to per-group partial sorting.
	if len(p.orderKey) > 0 {
		key := p.orderKey
		sat := 0
		// A chain whose final segment ran hash-partitioned concatenates
		// partitions, so the plan's nominal final ordering holds only
		// within each partition; the ORDER BY must then be satisfied by a
		// full sort.
		if result.Plan != nil && (result.Metrics == nil || !result.Metrics.Concatenated) {
			finalProps := result.Plan.FinalProps(core.Unordered())
			sat = core.OrderSatisfiedPrefix(finalProps, p.alignOrder)
			// The satisfied alignment elements must actually be the leading
			// ORDER BY items (alignOrder was built from that prefix).
			if sat > len(key) {
				sat = len(key)
			}
		}
		result.SatisfiedPrefix = sat
		switch {
		case sat >= len(key):
			result.FinalSort = "avoided"
		case sat > 0:
			result.FinalSort = "partial"
			partialSort(outTable.Rows, key, sat)
		default:
			result.FinalSort = "full"
			sort.SliceStable(outTable.Rows, func(i, j int) bool {
				return storage.CompareSeq(outTable.Rows[i], outTable.Rows[j], key) < 0
			})
		}
	}
	if p.q.Limit >= 0 && int64(outTable.Len()) > p.q.Limit {
		outTable.Rows = outTable.Rows[:p.q.Limit]
	}
}

// distinctRows deduplicates a table's rows in place, keeping the first
// occurrence (NULLs compare equal, per SQL DISTINCT semantics).
func distinctRows(t *storage.Table) {
	seen := make(map[string]bool, t.Len())
	dedup := t.Rows[:0]
	for _, row := range t.Rows {
		key := string(storage.AppendTuple(nil, row))
		if !seen[key] {
			seen[key] = true
			dedup = append(dedup, row)
		}
	}
	t.Rows = dedup
}

// checkPredicate validates a WHERE tree against the schema at prepare time:
// every column must resolve and every operator must be one evalPredicate
// implements, so a prepared statement cannot fail at execution with a
// client-side error.
func checkPredicate(e Expr, schema *storage.Schema) error {
	switch n := e.(type) {
	case *ColumnRef:
		if schema.ColIndex(n.Name) < 0 {
			return fmt.Errorf("sql: unknown column %q", n.Name)
		}
	case *LitExpr:
	case *NotExpr:
		return checkPredicate(n.E, schema)
	case *IsNullExpr:
		return checkPredicate(n.E, schema)
	case *BinaryExpr:
		switch strings.ToUpper(n.Op) {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
		default:
			return fmt.Errorf("sql: unknown operator %q", n.Op)
		}
		if err := checkPredicate(n.L, schema); err != nil {
			return err
		}
		return checkPredicate(n.R, schema)
	default:
		return fmt.Errorf("sql: unsupported predicate node %T", e)
	}
	return nil
}
