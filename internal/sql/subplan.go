package sql

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// The subplan seam splits a shareable prepared statement in two along the
// frame lattice (core/factor.go):
//
//   - the *scan+reorder subplan* — WHERE filtering plus the chain's single
//     heavy reorder — which depends only on (table, predicate, γ) and not
//     on the statement's window functions, projection or finalize clauses;
//   - the *derivation suffix* — window evaluation, projection, DISTINCT /
//     ORDER BY / LIMIT — which is scan-only over the subplan's output
//     (Theorem 1) and therefore cheap.
//
// Two different statements whose subplan identities collide (or whose
// functions are matched by a finer cached segment — the lattice hit) can
// share one physical execution of the expensive half. The service's
// shared-subplan cache (internal/service) is the coordination point; this
// file provides the statement-side mechanics.

// SharedSegment is a materialized scan+reorder subplan execution: the
// filtered, reordered base-schema rows, the physical stream property the
// row order carries, and the scan's metrics (charged once, to the query
// that executed it). The table is immutable — concurrent suffix
// executions copy rows into private arenas (exec.arenaRows) — so one
// segment serves any number of attached cursors.
type SharedSegment struct {
	Table   *storage.Table
	Props   core.Props
	Metrics *exec.Metrics
	// DataGen is the catalog data generation the scan observed; cache keys
	// embed it so appends invalidate shared segments.
	DataGen uint64
}

// Shareable reports whether the statement splits at the subplan seam: a
// planned chain led by one heavy reorder (FS/HS) with every later step
// reorder-free, executing sequentially. Multi-reorder chains and parallel
// configurations execute privately — their physical shape is not a single
// shared segment.
func (p *Prepared) Shareable() bool { return p.shareable }

// SubplanScanKey is the canonical identity of the statement's scan input:
// the lowercased table name and the canonicalized WHERE predicate. It is
// the frame-lattice *group* — statements in one group read the same rows
// and differ only in their reorder node.
func (p *Prepared) SubplanScanKey() string {
	return strings.ToLower(p.entry.Name) + "|" + canonExpr(p.q.Where)
}

// SubplanNode is the statement's frame-lattice node: the canonical form of
// the chain's leading heavy reorder (core.LatticeNode). Empty when the
// statement is not shareable.
func (p *Prepared) SubplanNode() string {
	if !p.shareable {
		return ""
	}
	return core.LatticeNode(p.plan)
}

// SubplanFingerprint hashes the subplan identity (scan key + lattice node)
// into the short token a cluster coordinator ships with scatter and
// shuffle requests, so every node resolves the same shared scan for one
// distributed statement without re-deriving it from text. Empty for
// non-shareable statements.
func (p *Prepared) SubplanFingerprint() string {
	if !p.shareable {
		return ""
	}
	return Fingerprint(p.SubplanScanKey() + "|" + p.SubplanNode())
}

// SubplanProps is the physical stream property of the subplan's output —
// what a shared segment cached under this statement's key carries.
func (p *Prepared) SubplanProps() core.Props {
	if !p.shareable {
		return core.Unordered()
	}
	return p.plan.Steps[0].Out
}

// WFs returns the statement's window functions in spec order, for lattice
// matching against a candidate segment's properties.
func (p *Prepared) WFs() []core.WF {
	ws := make([]core.WF, len(p.specs))
	for i, s := range p.specs {
		ws[i] = s.WF(i)
	}
	return ws
}

// DataGeneration returns the table's live data generation (advanced by
// appends); subplan cache keys embed it next to the schema generation.
func (p *Prepared) DataGeneration() uint64 { return p.entry.DataGen() }

// RunSubplan executes the scan+reorder subplan: WHERE filtering over a
// consistent table snapshot, then the chain's leading heavy reorder,
// materialized. The caller (the cache's singleflight leader) owns the
// returned segment and its metrics.
func (p *Prepared) RunSubplan(ctx context.Context) (*SharedSegment, error) {
	if !p.shareable {
		return nil, errors.New("sql: statement has no shareable subplan")
	}
	base, gen := p.entry.Snapshot()
	wt, err := p.filterWhere(base)
	if err != nil {
		return nil, err
	}
	cfg := p.cfg
	cfg.Parallelism = 1
	if cfg.Distinct == nil {
		cfg.Distinct = p.entry.Distinct
	}
	seg, metrics, err := exec.ReorderTable(ctx, wt, p.plan.Steps[0], cfg)
	if err != nil {
		return nil, err
	}
	return &SharedSegment{Table: seg, Props: p.plan.Steps[0].Out, Metrics: metrics, DataGen: gen}, nil
}

// runSuffix executes the statement's derivation suffix over a shared
// segment: the chain re-derived against the segment's stream property
// (every step reorder-free, by core.DeriveSuffix), run sequentially.
// chargeScan merges the segment's scan metrics into the result — set by
// the execution that actually paid for the scan, so accounting stays
// truthful: the leader reports scan+suffix, attachers report drain only.
func (p *Prepared) runSuffix(ctx context.Context, seg *SharedSegment, chargeScan bool) (*storage.Table, *Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	suffix, ok := core.DeriveSuffix(p.plan, seg.Props)
	if !ok {
		return nil, nil, fmt.Errorf("sql: shared segment %s does not cover the statement", seg.Props)
	}
	cfg := p.cfg
	cfg.Parallelism = 1
	if cfg.Distinct == nil {
		cfg.Distinct = p.entry.Distinct
	}
	out, metrics, err := exec.RunContext(ctx, seg.Table, p.specs, suffix, cfg)
	if err != nil {
		return nil, nil, err
	}
	if chargeScan && seg.Metrics != nil {
		merged := &exec.Metrics{
			BlocksRead:    seg.Metrics.BlocksRead + metrics.BlocksRead,
			BlocksWritten: seg.Metrics.BlocksWritten + metrics.BlocksWritten,
			Comparisons:   seg.Metrics.Comparisons + metrics.Comparisons,
			Elapsed:       seg.Metrics.Elapsed + metrics.Elapsed,
		}
		merged.Steps = append(append([]exec.StepMetrics{}, seg.Metrics.Steps...), metrics.Steps...)
		metrics = merged
	}
	// Result.Plan is the suffix chain: truthful for this execution (no
	// reorders ran) and what EXPLAIN renders. Its final property replays to
	// Unordered, so a final ORDER BY is satisfied by a stable full sort —
	// over a segment already carrying the order that sort is the identity
	// permutation, so shared and private executions emit identical rows in
	// identical order for any totally-ordering ORDER BY.
	result := &Result{FinalSort: "none", Parallelism: 1, EstRows: p.entry.Rows(), Plan: suffix, Metrics: metrics}
	return out, result, nil
}

// canonExpr renders a predicate in canonical form — lowercased column
// names, uppercased operators, fully parenthesized, literals normalized —
// so two spellings of one predicate produce one subplan key. A nil
// predicate renders as the empty string.
func canonExpr(e Expr) string {
	switch n := e.(type) {
	case nil:
		return ""
	case *ColumnRef:
		return strings.ToLower(n.Name)
	case *LitExpr:
		return canonLit(n.Lit)
	case *NotExpr:
		return "(NOT " + canonExpr(n.E) + ")"
	case *IsNullExpr:
		if n.Not {
			return "(" + canonExpr(n.E) + " IS NOT NULL)"
		}
		return "(" + canonExpr(n.E) + " IS NULL)"
	case *BinaryExpr:
		return "(" + canonExpr(n.L) + " " + strings.ToUpper(n.Op) + " " + canonExpr(n.R) + ")"
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

func canonLit(l Literal) string {
	switch {
	case l.IsNull:
		return "NULL"
	case l.Int != nil:
		return strconv.FormatInt(*l.Int, 10)
	case l.Float != nil:
		return strconv.FormatFloat(*l.Float, 'g', -1, 64)
	case l.Str != nil:
		return "'" + strings.ReplaceAll(*l.Str, "'", "''") + "'"
	case l.Bool != nil:
		if *l.Bool {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "NULL"
	}
}
