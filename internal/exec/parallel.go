package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/pagestore"
	"repro/internal/reorder"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/window"
)

// ParallelEvaluate implements Section 3.5: the evaluation of a single window
// function wf = (WPK, WOK) is parallelized by hash-partitioning the input on
// the WPK attributes; each data partition is reordered independently (every
// partition of an SS/HS-reorderable input remains SS/HS-reorderable) and the
// window function is evaluated per partition. Outputs are concatenated —
// window semantics are insensitive to the order of partitions.
//
// WPK must be non-empty (with an empty WPK the whole table is one window
// partition and the evaluation is inherently sequential).
func ParallelEvaluate(table *storage.Table, spec window.Spec, degree int, cfg Config) (*storage.Table, error) {
	if degree < 1 {
		degree = 1
	}
	if spec.PK.Empty() {
		return nil, fmt.Errorf("exec: parallel evaluation requires a non-empty partitioning key")
	}
	if err := spec.Validate(table.Schema); err != nil {
		return nil, err
	}
	parts := partitionRows(table.Rows, spec.PK.IDs(), degree)

	key := spec.PK.AscSeq().Concat(spec.OK)
	results := make([][]storage.Tuple, degree)
	errs := make([]error, degree)
	var wg sync.WaitGroup
	for p := 0; p < degree; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if len(parts[p]) == 0 {
				return
			}
			// Each worker gets its own spill store and the full unit
			// reorder memory, as in the paper's parallel model.
			store := pagestore.NewMem(cfg.blockSize(), &pagestore.Stats{})
			rcfg := reorder.Config{MemoryBytes: cfg.MemoryBytes, Store: store, RunFormation: cfg.RunFormation, Reserve: 1}
			sorted, _, err := reorder.FullSort(stream.FromTuples(parts[p]), key, rcfg)
			if err != nil {
				errs[p] = err
				return
			}
			evaluated, err := window.Evaluate(sorted, spec)
			if err != nil {
				errs[p] = err
				return
			}
			tuples, err := stream.CollectTuples(evaluated)
			if err != nil {
				errs[p] = err
				return
			}
			results[p] = tuples
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := storage.NewTable(table.Schema.WithColumn(spec.OutputColumn()))
	for _, part := range results {
		out.Rows = append(out.Rows, part...)
	}
	return out, nil
}

// chainSegment is a maximal run of plan steps executed as one unit by
// ParallelRun: hash-partitioned across workers on Key when Key is non-empty,
// sequentially otherwise.
type chainSegment struct {
	lo, hi int       // step range [lo, hi)
	Key    attrs.Set // common partition key; empty → sequential segment
}

// planSegments splits a chain into parallel-executable segments, falling
// back to sequential segments where the partition keys diverge.
//
// A segment may run hash-partitioned on key K only when
//
//   - K ⊆ WPK of every window function in the segment: each WPK-group then
//     lands wholly inside one data partition, so every per-partition pipeline
//     sees complete window partitions (Section 3.5's condition, applied to
//     the whole segment instead of a single function);
//   - the segment's first step can tolerate a hash-partitioned input. The
//     very first segment reads the original table, of which each data
//     partition is a subsequence — subsequences preserve sortedness,
//     groupedness and (with K inside every WPK) window-partition
//     contiguity, so any reorder kind may lead it. Later segments read a
//     concatenation of per-partition outputs whose inter-partition order is
//     weaker than the stream property the planner tracked, so they must
//     begin with a reorder that rebuilds order from scratch (FS or HS);
//   - the step after the segment (when one exists) is FS or HS for the same
//     reason: it restarts from the concatenated output.
func planSegments(plan *core.Plan) []chainSegment {
	steps := plan.Steps
	var segs []chainSegment
	for i := 0; i < len(steps); {
		if key, hi := parallelSpan(steps, i); hi > i {
			segs = append(segs, chainSegment{lo: i, hi: hi, Key: key})
			i = hi
			continue
		}
		// Sequential fallback: absorb steps until a parallel span can start.
		hi := i + 1
		for hi < len(steps) {
			if _, h := parallelSpan(steps, hi); h > hi {
				break
			}
			hi++
		}
		segs = append(segs, chainSegment{lo: i, hi: hi})
		i = hi
	}
	return segs
}

// rebuildsOrder reports whether a reorder kind establishes its output
// property regardless of the input arrival order.
func rebuildsOrder(k core.ReorderKind) bool {
	return k == core.ReorderFS || k == core.ReorderHS
}

// parallelSpan returns the longest parallel-executable segment starting at
// step lo and its partition key, or hi == lo when none exists.
func parallelSpan(steps []core.Step, lo int) (attrs.Set, int) {
	if lo > 0 && !rebuildsOrder(steps[lo].Reorder) {
		return 0, lo
	}
	if steps[lo].WF.PK.Empty() {
		return 0, lo
	}
	common := steps[lo].WF.PK
	hi := lo + 1
	for hi < len(steps) && !common.Intersect(steps[hi].WF.PK).Empty() {
		common = common.Intersect(steps[hi].WF.PK)
		hi++
	}
	// The step following the segment restarts from the concatenated output;
	// shrink until it is an order-rebuilding reorder (or the chain end).
	for hi > lo && hi < len(steps) && !rebuildsOrder(steps[hi].Reorder) {
		hi--
	}
	if hi == lo {
		return 0, lo
	}
	// Recompute the widest key for the final (possibly shrunk) range.
	key := steps[lo].WF.PK
	for j := lo + 1; j < hi; j++ {
		key = key.Intersect(steps[j].WF.PK)
	}
	return key, hi
}

// ParallelRun executes a planned window-function chain with Section 3.5's
// hash-partitioned parallelism generalized from one function to the whole
// chain. The chain is split into segments sharing a common partition key
// (planSegments); each parallel segment hash-partitions its input on that
// key into degree data partitions, runs every partition's reorder+evaluate
// pipeline (the unchanged sequential Run) on its own worker with its own
// spill store and the full unit reorder memory, then concatenates the
// per-partition outputs in partition-index order — deterministic for a
// given degree. Segments whose keys diverge down to the empty set run
// sequentially in place.
//
// Derived values and the output row multiset are identical to Run's; only
// the final row order differs (windows are insensitive to it — callers that
// need an order must sort, as the SQL runner does). Per-worker metrics are
// merged: I/O and comparison counters sum across partitions, a step's
// Duration is the slowest partition's (the parallel wall clock), and
// Elapsed spans the whole call.
//
// degree ≤ 0 resolves through cfg.Degree() (Parallelism, 0 → GOMAXPROCS);
// a resolved degree of 1 is exactly the sequential Run.
func ParallelRun(table *storage.Table, specs []window.Spec, plan *core.Plan, cfg Config, degree int) (*storage.Table, *Metrics, error) {
	return ParallelRunContext(context.Background(), table, specs, plan, cfg, degree)
}

// ParallelRunContext is ParallelRun with cancellation: ctx is checked at
// every segment boundary and, inside each worker, at every step boundary of
// the per-partition pipeline (the workers run RunContext). The first
// ctx.Err() observed cancels the whole chain.
func ParallelRunContext(ctx context.Context, table *storage.Table, specs []window.Spec, plan *core.Plan, cfg Config, degree int) (*storage.Table, *Metrics, error) {
	if degree <= 0 {
		degree = cfg.Degree()
	}
	// An empty input delegates too: it would leave every partition empty,
	// skipping the workers — and with them the per-step spec validation the
	// sequential-compatibility contract promises.
	if degree <= 1 || len(plan.Steps) == 0 || table.Len() == 0 {
		return RunContext(ctx, table, specs, plan, cfg)
	}
	start := time.Now()
	metrics := &Metrics{}
	cur := table
	for _, seg := range planSegments(plan) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		sub := &core.Plan{Scheme: plan.Scheme, Steps: plan.Steps[seg.lo:seg.hi]}
		var (
			out *storage.Table
			m   *Metrics
			err error
		)
		if seg.Key.Empty() {
			out, m, err = RunContext(ctx, cur, specs, sub, cfg)
			metrics.Concatenated = false
		} else {
			out, m, err = runPartitioned(ctx, cur, specs, sub, seg.Key, cfg, degree)
			metrics.Concatenated = true
			metrics.PartitionedSteps += len(sub.Steps)
		}
		if err != nil {
			return nil, nil, err
		}
		cur = out
		metrics.Steps = append(metrics.Steps, m.Steps...)
		metrics.BlocksRead += m.BlocksRead
		metrics.BlocksWritten += m.BlocksWritten
		metrics.Comparisons += m.Comparisons
	}
	metrics.Elapsed = time.Since(start)
	return cur, metrics, nil
}

// runPartitioned executes one parallel segment: partition on key, run the
// segment's pipeline per partition on a pool of degree workers, merge
// metrics and concatenate outputs by partition index.
func runPartitioned(ctx context.Context, table *storage.Table, specs []window.Spec, plan *core.Plan, key attrs.Set, cfg Config, degree int) (*storage.Table, *Metrics, error) {
	parts := partitionRows(table.Rows, key.IDs(), degree)
	outs := make([]*storage.Table, degree)
	mets := make([]*Metrics, degree)
	errs := make([]error, degree)
	var wg sync.WaitGroup
	for p := 0; p < degree; p++ {
		if len(parts[p]) == 0 {
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			in := storage.NewTable(table.Schema)
			in.Rows = parts[p]
			outs[p], mets[p], errs[p] = RunContext(ctx, in, specs, plan, cfg)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	// The merged schema is independent of which partitions were non-empty.
	schema := table.Schema
	merged := &Metrics{Steps: make([]StepMetrics, len(plan.Steps))}
	for i, s := range plan.Steps {
		schema = schema.WithColumn(specs[s.WF.ID].OutputColumn())
		merged.Steps[i] = StepMetrics{WFID: s.WF.ID, Reorder: s.Reorder}
	}
	out := storage.NewTable(schema)
	workers := 0
	for p := 0; p < degree; p++ {
		if outs[p] == nil {
			continue
		}
		workers++
		out.Rows = append(out.Rows, outs[p].Rows...)
		for i := range merged.Steps {
			st, ms := mets[p].Steps[i], &merged.Steps[i]
			ms.BlocksRead += st.BlocksRead
			ms.BlocksWritten += st.BlocksWritten
			ms.Comparisons += st.Comparisons
			ms.Rows += st.Rows
			if st.Duration > ms.Duration {
				ms.Duration = st.Duration
			}
			if ms.Detail == "" {
				ms.Detail = st.Detail
			}
		}
	}
	for i := range merged.Steps {
		ms := &merged.Steps[i]
		ms.Detail = strings.TrimSpace(fmt.Sprintf("parallel=%d %s", workers, ms.Detail))
		merged.BlocksRead += ms.BlocksRead
		merged.BlocksWritten += ms.BlocksWritten
		merged.Comparisons += ms.Comparisons
		merged.Elapsed += ms.Duration
	}
	return out, merged, nil
}

// ChainCommonKey returns the partition key shared by every step of the
// chain: the intersection of all window partitioning keys, empty when any
// step has an empty WPK or the keys diverge to ∅. It is the whole-chain
// form of the per-segment analysis in planSegments, and the routing
// predicate of the sharded executor: a table hash-partitioned on a
// non-empty K ⊆ ChainCommonKey can run the entire chain independently per
// partition — every window partition of every function lands wholly inside
// one data partition — so shard-local execution is value-identical to
// single-engine execution (Section 3.5's condition, lifted from segments of
// one process to nodes of a cluster). Unlike planSegments, no
// reorder-kind condition applies: each partition runs the chain from its
// own raw input, so there is no mid-chain concatenation for a later step
// to observe.
func ChainCommonKey(plan *core.Plan) attrs.Set {
	if plan == nil || len(plan.Steps) == 0 {
		return 0
	}
	key := plan.Steps[0].WF.PK
	for _, step := range plan.Steps[1:] {
		key = key.Intersect(step.WF.PK)
	}
	return key
}

// Segment is one key-divergence segment of a chain: the maximal step run
// [Lo, Hi) whose window partitioning keys share the non-empty common Key —
// ChainCommonKey restricted to the run.
type Segment struct {
	Lo, Hi int
	Key    attrs.Set
}

// DivergentSegments splits a chain at its key-divergence points: each
// returned segment is a maximal step run with a non-empty common partition
// key (ChainCommonKey applied per segment). A table hash-partitioned on a
// segment's Key runs that segment fully partitioned — Section 3.5's
// condition per segment instead of per chain — so a distributed executor
// can run every segment scattered, re-shuffling rows on the next segment's
// key between segments (Cao et al., VLDB 2012).
//
// Two conditions void the split, returning nil (the caller falls back to
// single-site execution):
//
//   - a step with an empty WPK, or a divergence down to ∅ mid-segment:
//     that segment has no usable shuffle key;
//   - a segment whose first step (after the first segment) does not
//     rebuild order from scratch (FS/HS): the shuffled rows arrive in
//     arbitrary interleaved order, weaker than the stream property the
//     planner tracked across the cut, so only an order-rebuilding reorder
//     may lead a post-shuffle segment — the same condition planSegments
//     imposes on post-concatenation segments in one process.
//
// A chain with a non-empty whole-chain common key yields one segment.
func DivergentSegments(plan *core.Plan) []Segment {
	if plan == nil || len(plan.Steps) == 0 {
		return nil
	}
	steps := plan.Steps
	key := steps[0].WF.PK
	if key.Empty() {
		return nil
	}
	var segs []Segment
	lo := 0
	for i := 1; i < len(steps); i++ {
		if next := key.Intersect(steps[i].WF.PK); !next.Empty() {
			key = next
			continue
		}
		if steps[i].WF.PK.Empty() || !rebuildsOrder(steps[i].Reorder) {
			return nil
		}
		segs = append(segs, Segment{Lo: lo, Hi: i, Key: key})
		lo, key = i, steps[i].WF.PK
	}
	return append(segs, Segment{Lo: lo, Hi: len(steps), Key: key})
}

// Concatenates reports whether ParallelRun at a degree > 1 would emit a
// partition-index concatenation — i.e. the chain's final segment runs
// hash-partitioned — voiding the plan's nominal output ordering. Planners
// integrating interesting orders (Section 5) consult this before paying
// for an alignment the concatenation would discard.
func Concatenates(plan *core.Plan) bool {
	segs := planSegments(plan)
	return len(segs) > 0 && !segs[len(segs)-1].Key.Empty()
}

// PartitionRows hash-partitions rows on the key attributes into degree
// buckets, preserving scan order within each bucket. It uses the
// tuple-encoding FNV hash shared by both parallel executors, and is
// exported so sharded registration distributes a table's rows exactly as
// the in-process executors would partition them — a chain that is
// shard-local on key K sees the same data partitions either way.
func PartitionRows(rows []storage.Tuple, ids []attrs.ID, degree int) [][]storage.Tuple {
	return partitionRows(rows, ids, degree)
}

// partitionRows hash-partitions rows on the key attributes into degree
// buckets, preserving scan order within each bucket. Both parallel
// executors share it so the single-function and chain forms partition
// identically.
func partitionRows(rows []storage.Tuple, ids []attrs.ID, degree int) [][]storage.Tuple {
	parts := make([][]storage.Tuple, degree)
	for _, t := range rows {
		p := int(hashTupleKey(t, ids) % uint64(degree))
		parts[p] = append(parts[p], t)
	}
	return parts
}

// hashTupleKey is FNV-1a over the concatenated single-value tuple
// encodings of the key attributes, streamed through storage.HashValueFNV
// instead of materializing the encoding — the partitioning hash runs once
// per row on every scatter and shuffle path, and the buffer it used to
// build was the hot loop's dominant allocation. The raw FNV value is
// passed through a finalizer before use: partitioning buckets by hash
// modulo degree, and FNV-1a's low bits carry visible structure for short
// integer keys — every item key in a small dimension can land in one
// bucket mod 2, leaving shards empty. Every placement decision in one
// process (parallel executors, sharded registration, append routing, the
// shuffle data plane) uses this same function, so placement stays
// internally consistent.
func hashTupleKey(t storage.Tuple, ids []attrs.ID) uint64 {
	h := storage.HashSeedFNV
	for _, id := range ids {
		h = storage.HashValueFNV(h, t[id])
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: full-avalanche bit mixing so the
// modulo in partitionRows sees uniform low bits.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
