// Package exec runs window-function chains (core.Plan) over materialized
// tables: it applies each step's reordering operator, invokes the window
// function, and collects per-step metrics — block I/O, key comparisons and
// wall time — the measurements behind every figure in the paper's Section 6.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/reorder"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/window"
	"repro/internal/xsort"
)

// Config carries execution resources.
type Config struct {
	// MemoryBytes is the unit reorder memory M: every reordering operation
	// in the chain gets this budget (Section 6.1).
	MemoryBytes int
	// BlockSize is the page size (default pagestore.DefaultBlockSize).
	BlockSize int
	// FileBacked spills to real temp files in TempDir instead of memory.
	FileBacked bool
	TempDir    string
	// RunFormation selects the external-sort run formation policy.
	RunFormation xsort.RunFormation
	// HSBuckets overrides the Hashed Sort bucket-count policy when > 0.
	HSBuckets int
	// SpillPolicy selects the HS bucket flush victim.
	SpillPolicy reorder.SpillPolicy
	// Distinct estimates D(set) from catalog statistics; used for HS bucket
	// sizing. nil falls back to policy defaults.
	Distinct func(set attrs.Set) int64
	// MFV returns the encoded most-frequent values of a hash key whose
	// groups exceed the sort budget (Section 3.2's bypass optimization);
	// nil disables the bypass, matching the paper's prototype.
	MFV func(key attrs.Set) map[string]bool
	// Parallelism is the worker degree of the parallel chain executor
	// (ParallelRun, Section 3.5 generalized to whole chains): values > 1
	// hash-partition the input into that many data partitions, 1 or any
	// negative value force the sequential pipeline, and 0 resolves to
	// runtime.GOMAXPROCS(0). The parallel path is sequential-compatible —
	// it computes exactly the sequential derived values over exactly the
	// sequential row multiset — but emits rows in partition-index order
	// rather than the sequential pipeline's final order. The sequential Run
	// ignores this field; Engine facades and the SQL runner route through
	// ParallelRun when the configured degree exceeds 1.
	Parallelism int
}

// Degree resolves Parallelism to a concrete worker count (≥ 1).
func (c Config) Degree() int {
	switch {
	case c.Parallelism > 0:
		return c.Parallelism
	case c.Parallelism == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

func (c Config) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return pagestore.DefaultBlockSize
}

// StepMetrics measures one chain step.
type StepMetrics struct {
	WFID          int
	Reorder       core.ReorderKind
	BlocksRead    int64
	BlocksWritten int64
	Comparisons   int64
	// Rows is the step's output cardinality (window evaluation is 1:1, so
	// this is also the input cardinality — the "actual rows" side of
	// EXPLAIN ANALYZE).
	Rows     int64
	Duration time.Duration
	// Detail carries operator-specific statistics (runs, buckets, units).
	Detail string
}

// Metrics aggregates a chain execution.
type Metrics struct {
	Steps         []StepMetrics
	BlocksRead    int64
	BlocksWritten int64
	Comparisons   int64
	Elapsed       time.Duration
	// Concatenated reports that the output rows are a partition-index
	// concatenation produced by the parallel executor rather than the
	// sequential pipeline's output order: orderings implied by the plan's
	// final stream property then hold only within each partition. False
	// whenever the chain's final segment ran sequentially (a sequential
	// segment after a parallel one always begins with an order-rebuilding
	// reorder, which restores the plan's tracked property).
	Concatenated bool
	// PartitionedSteps counts the chain steps that executed hash-
	// partitioned across workers; 0 means the whole chain ran on the
	// sequential pipeline (always the case for Run).
	PartitionedSteps int
}

// TotalBlocks returns read+written blocks, the paper's I/O cost unit.
func (m *Metrics) TotalBlocks() int64 { return m.BlocksRead + m.BlocksWritten }

// Run executes plan over table. specs[i] must correspond to the window
// function with ID i in the plan. It returns a new table extended with one
// derived column per window function, in plan evaluation order.
//
// Each step drains its (lazily reordering) stream fully before the next step
// begins, so per-step metrics are exact; within a step the reorder and the
// window invocation are pipelined exactly as in the paper's executor.
func Run(table *storage.Table, specs []window.Spec, plan *core.Plan, cfg Config) (*storage.Table, *Metrics, error) {
	return RunContext(context.Background(), table, specs, plan, cfg)
}

// RunContext is Run with cancellation: ctx is checked at every step
// boundary (a chain step — reorder plus window evaluation — is the unit of
// preemption, so a cancelled context stops the chain before the next
// reorder begins). It returns ctx.Err() when the context is done.
func RunContext(ctx context.Context, table *storage.Table, specs []window.Spec, plan *core.Plan, cfg Config) (*storage.Table, *Metrics, error) {
	stats := &pagestore.Stats{}
	var store *pagestore.Store
	if cfg.FileBacked {
		store = pagestore.NewFileBacked(cfg.TempDir, cfg.blockSize(), stats)
	} else {
		store = pagestore.NewMem(cfg.blockSize(), stats)
	}

	metrics := &Metrics{}
	live := trace.LiveFromContext(ctx)
	start := time.Now()
	rows := arenaRows(table, len(plan.Steps))
	schema := table.Schema
	var comparisons int64
	tableBlocks := int64(table.ByteSize()) / int64(cfg.blockSize())

	for i, step := range plan.Steps {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if step.WF.ID < 0 || step.WF.ID >= len(specs) {
			return nil, nil, fmt.Errorf("exec: plan references wf%d outside specs", step.WF.ID)
		}
		spec := specs[step.WF.ID]
		if err := spec.Validate(schema); err != nil {
			return nil, nil, fmt.Errorf("exec: wf%d: %w", step.WF.ID, err)
		}
		stepStart := time.Now()
		r0, w0, c0 := stats.BlocksRead(), stats.BlocksWritten(), comparisons

		rcfg := reorder.Config{
			MemoryBytes:  cfg.MemoryBytes,
			Store:        store,
			Comparisons:  &comparisons,
			RunFormation: cfg.RunFormation,
			// Rows read back from a spill keep the arena rows' headroom:
			// one slot for this step and each later one.
			Reserve: len(plan.Steps) - i,
		}
		in := stream.FromRows(rows)
		var (
			out     stream.Stream
			detail  string
			ssStats *reorder.SSStats
			err     error
		)
		switch step.Reorder {
		case core.ReorderNone:
			out = in
		case core.ReorderFS:
			var st reorder.FSStats
			out, st, err = reorder.FullSort(in, step.SortKey, rcfg)
			detail = fmt.Sprintf("runs=%d passes=%d inmem=%v", st.Sort.InitialRuns, st.Sort.MergePasses, st.Sort.InMemory)
		case core.ReorderHS:
			opt := reorder.HSOptions{
				HashKey:     step.HashKey.IDs(),
				SortKey:     step.SortKey,
				Buckets:     cfg.HSBuckets,
				SpillPolicy: cfg.SpillPolicy,
			}
			if cfg.Distinct != nil {
				opt.DistinctHint = cfg.Distinct(step.HashKey)
			}
			if opt.Buckets <= 0 {
				opt.Buckets = int(core.HSBucketCount(opt.DistinctHint, tableBlocks, int64(cfg.MemoryBytes)/int64(cfg.blockSize())))
			}
			if cfg.MFV != nil {
				opt.MFVs = cfg.MFV(step.HashKey)
			}
			var st reorder.HSStats
			out, st, err = reorder.HashedSort(in, opt, rcfg)
			detail = fmt.Sprintf("buckets=%d spilled=%d resident=%d mfv=%d", st.Buckets, st.SpilledBuckets, st.MemoryResident, st.MFVTuples)
		case core.ReorderSS:
			opt := reorder.SSOptions{Alpha: step.Alpha, Beta: step.Beta}
			if step.In.Grouped {
				// Grouped inputs carry their segment structure in the data.
				opt.SegmentBy = step.In.X.IDs()
			}
			out, ssStats, err = reorder.SegmentedSort(in, opt, rcfg)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("exec: wf%d %s reorder: %w", step.WF.ID, step.Reorder, err)
		}

		evaluated, err := window.Evaluate(out, spec)
		if err != nil {
			return nil, nil, fmt.Errorf("exec: wf%d evaluate: %w", step.WF.ID, err)
		}
		newRows, err := stream.Collect(evaluated)
		if err != nil {
			return nil, nil, fmt.Errorf("exec: wf%d drain: %w", step.WF.ID, err)
		}
		if ssStats != nil {
			detail = fmt.Sprintf("segments=%d units=%d external=%d", ssStats.Segments, ssStats.Units, ssStats.ExternalUnits)
		}
		rows = newRows
		schema = schema.WithColumn(spec.OutputColumn())

		metrics.Steps = append(metrics.Steps, StepMetrics{
			WFID:          step.WF.ID,
			Reorder:       step.Reorder,
			BlocksRead:    stats.BlocksRead() - r0,
			BlocksWritten: stats.BlocksWritten() - w0,
			Comparisons:   comparisons - c0,
			Rows:          int64(len(newRows)),
			Duration:      time.Since(stepStart),
			Detail:        detail,
		})
		// Per-step progress becomes visible in /debug/queries while the
		// chain is still running; atomic adds once per step, not per row.
		live.AddRowsScanned(int64(len(newRows)))
		live.AddBlocks(stats.BlocksRead()-r0, stats.BlocksWritten()-w0)
	}

	metrics.BlocksRead = stats.BlocksRead()
	metrics.BlocksWritten = stats.BlocksWritten()
	metrics.Comparisons = comparisons
	metrics.Elapsed = time.Since(start)

	result := storage.NewTable(schema)
	result.Rows = make([]storage.Tuple, len(rows))
	for i, r := range rows {
		result.Rows[i] = r.Tuple
	}
	return result, metrics, nil
}

// arenaRows copies the input tuples into one contiguous value arena, each
// row sliced out with spare capacity for the chain's derived columns:
// window evaluation (Tuple.Extend) then grows rows in place, so a k-step
// chain performs zero per-row tuple allocations where it used to copy
// every tuple once per step. The copy also severs the executor from the
// engine-owned table rows, which must never observe the appends — and the
// three-index slices pin each row's capacity to its own arena region, so
// a row cannot grow into its neighbour. Rows that a reorder spills come
// back from a storage.Arena with the same headroom (reorder.Config
// Reserve: one slot per remaining step), so spilling does not cost the
// in-place extension either. In-place extension is safe because the
// chain never duplicates a row reference: reorders permute (a spilled
// row is decoded exactly once), and evaluation emits exactly one output
// row per input row, so each row is extended at most once per step.
func arenaRows(table *storage.Table, steps int) []stream.Row {
	arity := table.Schema.Len()
	stride := arity + steps
	rows := make([]stream.Row, len(table.Rows))
	arena := make([]storage.Value, len(table.Rows)*stride)
	for i, t := range table.Rows {
		base := i * stride
		row := storage.Tuple(arena[base : base+arity : base+stride])
		copy(row, t)
		rows[i] = stream.Row{Tuple: row, Boundary: i == 0}
	}
	return rows
}
