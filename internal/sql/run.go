package sql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// Scheme names a window-function optimization scheme.
type Scheme string

// The four schemes evaluated in the paper's Section 6.
const (
	SchemeCSO  Scheme = "CSO"
	SchemeBFO  Scheme = "BFO"
	SchemeORCL Scheme = "ORCL"
	SchemePSQL Scheme = "PSQL"
)

// Runner prepares window queries against a catalog (Prepare); each
// prepared statement executes through Prepared.Open.
type Runner struct {
	Catalog *catalog.Catalog
	// Scheme selects the plan generator (default CSO).
	Scheme Scheme
	// Exec carries the execution resources (unit reorder memory etc.).
	Exec exec.Config
	// DisableHS / DisableSS restrict the optimizer to the paper's CSO(v1)
	// / CSO(v2) ablation variants, matching windowdb.Config's switches.
	DisableHS bool
	DisableSS bool
}

// Result is an executed query's metadata — the window chain and its
// execution metrics (nil when the query had no window functions) — plus,
// in buffered form, the output table. A Cursor's Meta carries it with
// Table nil; draining the cursor fills the table.
type Result struct {
	Table   *storage.Table
	Plan    *core.Plan
	Metrics *exec.Metrics
	// FinalSort reports how the query's ORDER BY was satisfied: "none"
	// (no ORDER BY), "full" (explicit sort), "partial" (the chain's output
	// ordering pre-satisfied a prefix; only within-group sorting remained)
	// or "avoided" (the chain's output already satisfied it — Section 5's
	// interesting-order integration).
	FinalSort string
	// SatisfiedPrefix counts the leading ORDER BY elements the chain's
	// output ordering guaranteed.
	SatisfiedPrefix int
	// Parallelism is the worker degree the chain actually executed with:
	// 1 when every step ran on the sequential pipeline — including chains
	// the parallel executor fell back on for lack of a common partition
	// key — and the configured degree when at least one segment ran
	// hash-partitioned (Metrics.PartitionedSteps > 0). When the final
	// segment ran partitioned (Metrics.Concatenated), the chain's nominal
	// output ordering is not preserved and any ORDER BY is satisfied by a
	// full explicit sort; chains run sequentially end to end keep
	// Section 5's sort avoidance.
	Parallelism int
	// EstRows is the planner's input-cardinality estimate for the queried
	// table (catalog |R|): the "estimated rows" EXPLAIN ANALYZE contrasts
	// with each step's observed cardinality.
	EstRows int64
	// Watermark is the table data generation a maintained (SUBSCRIBE)
	// cursor's output is current as of; 0 for one-shot queries.
	Watermark uint64
	// SharedScan is the shared-subplan cache disposition of this execution
	// — "miss" (this query ran the scan), "hit" (served from a completed
	// segment) or "attach" (waited on an in-flight scan). Empty when the
	// execution did not go through the shared-subplan cache. Set by the
	// serving layer.
	SharedScan string
}

// resolveOutputColumn finds the first SELECT item whose visible name is
// name and, when that item projects a base-table column, returns the base
// column index. Window-function items and unmatched names return false.
func resolveOutputColumn(items []SelectItem, schema *storage.Schema, name string) (int, bool) {
	for _, item := range items {
		switch {
		case item.Star:
			if c := schema.ColIndex(name); c >= 0 {
				return c, true
			}
		case item.Window != nil:
			visible := item.Alias
			if visible == "" {
				visible = item.Window.Func
			}
			if strings.EqualFold(visible, name) {
				return 0, false
			}
		default:
			visible := item.Alias
			if visible == "" {
				visible = item.Column
			}
			if strings.EqualFold(visible, name) {
				c := schema.ColIndex(item.Column)
				return c, c >= 0
			}
		}
	}
	return 0, false
}

// partialSort exploits a pre-satisfied key prefix: rows already arrive in
// runs that agree on key[:sat], so only each run needs sorting on the key
// remainder — the partial sort of [7, 13], which Section 3.3 identifies as
// a special case of Segmented Sort.
func partialSort(rows []storage.Tuple, key attrs.Seq, sat int) {
	prefix, rest := key[:sat], key[sat:]
	start := 0
	for start < len(rows) {
		end := start + 1
		for end < len(rows) && storage.CompareSeq(rows[start], rows[end], prefix) == 0 {
			end++
		}
		run := rows[start:end]
		sort.SliceStable(run, func(i, j int) bool {
			return storage.CompareSeq(run[i], run[j], rest) < 0
		})
		start = end
	}
}

// FormatTable renders a result table with padded columns, for examples and
// the CLI.
func FormatTable(t *storage.Table, maxRows int) string {
	var sb strings.Builder
	widths := make([]int, t.Schema.Len())
	for i, c := range t.Schema.Columns {
		widths[i] = len(c.Name)
	}
	n := t.Len()
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	for _, row := range t.Rows[:n] {
		for i, v := range row {
			if l := len(v.String()); l > widths[i] {
				widths[i] = l
			}
		}
	}
	for i, c := range t.Schema.Columns {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], strings.ToUpper(c.Name))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows[:n] {
		for i, v := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], v.String())
		}
		sb.WriteByte('\n')
	}
	if n < t.Len() {
		fmt.Fprintf(&sb, "... (%d more rows)\n", t.Len()-n)
	}
	return sb.String()
}
