package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/window"
)

// workload is one named query mix and the system it runs against. Both
// workloads drive their system from one closed-loop client.
type workload struct {
	name  string
	rows  int // web_sales rows
	mix   func() []queryDef
	build func(ctx context.Context, rows int, seed int64) (*system, error)
	// deterministic asserts that every pass over the mix counts the same
	// blocks and comparisons (no sharing, no shuffle timing).
	deterministic bool
}

const (
	setupReps     = 3   // set-ups per timed run; setup_s is their median
	batchRows     = 100 // rows per appended batch
	probeBatches  = 200 // batches of the append probe
	probeInterval = 20 * time.Millisecond
)

// paperPoint generates the paper's tables (bench.Build) and returns them
// with the unit reorder memory at the paper's scaled "50MB" point
// (bench.Dataset.SchemeMemSweep).
func paperPoint(rows int, seed int64) (*bench.Dataset, int) {
	d := bench.Build(bench.Config{Rows: rows, Seed: seed})
	return d, d.SchemeMemSweep()[0].Bytes(d.Cfg.BlockSize)
}

func workloads() map[string]*workload {
	ws := []*workload{
		{
			name: "paper-spill", rows: 10_000, mix: paperMix, deterministic: true,
			build: func(ctx context.Context, rows int, seed int64) (*system, error) {
				d, mem := paperPoint(rows, seed)
				return newEngineSystem(map[string]*storage.Table{
					"web_sales": d.WebSales, "web_sales_s": d.WebSalesS, "web_sales_g": d.WebSalesG,
				}, mem), nil
			},
		},
		{
			name: "cluster-shuffle", rows: 10_000, mix: shuffleMix,
			build: func(ctx context.Context, rows int, seed int64) (*system, error) {
				ws := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: seed})
				return newClusterSystem(ctx, map[string]*storage.Table{"web_sales": ws}, 64<<20, 2)
			},
		},
	}
	m := map[string]*workload{}
	for _, w := range ws {
		m[w.name] = w
	}
	return m
}

// runner carries one run's state: the system, the oracle and the tally.
type runner struct {
	w         *workload
	seed      int64
	seconds   int
	sys       *system
	base      map[string][]storage.Tuple // rows as registered, before any append
	schemas   map[string]*storage.Schema
	oracles   map[string]expected
	attempted int
	failedOps int
	failures  []string
}

func (r *runner) fail(err error) {
	r.failedOps++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *runner) window() time.Duration { return time.Duration(r.seconds) * time.Second }

// setup builds and warms the system reps times, keeps the last one, and
// returns every set-up time. The oracle is computed afterwards, untimed.
func (r *runner) setup(ctx context.Context, reps int) ([]float64, error) {
	var times []float64
	mix := r.w.mix()
	for i := 0; i < reps; i++ {
		settle()
		t0 := time.Now()
		s, err := r.w.build(ctx, r.w.rows, r.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := warm(ctx, s.q, mix); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			s.close()
		} else {
			r.sys = s
		}
	}
	r.base, r.schemas, r.oracles = map[string][]storage.Tuple{}, map[string]*storage.Schema{}, map[string]expected{}
	for name, t := range r.sys.tables {
		r.base[name] = slices.Clip(t.Rows)
		r.schemas[name] = t.Schema
	}
	for _, q := range mix {
		if _, err := r.expect(q); err != nil {
			return nil, err
		}
		if err := r.crossCheck(q); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// expect returns the oracle for statement q over its base table.
func (r *runner) expect(q queryDef) (expected, error) {
	if e, ok := r.oracles[q.name]; ok {
		return e, nil
	}
	e, err := oracle(r.schemas[q.table], r.base[q.table], q)
	if err != nil {
		return e, err
	}
	r.oracles[q.name] = e
	return e, nil
}

// crossCheck compares the oracle's first window of q with the engine's
// O(n²) window.Reference on every partition of at most 64 rows (up to
// 200 of them); windows without small partitions rest on the oracle.
func (r *runner) crossCheck(q queryDef) error {
	eng := probeEngine(map[string]*storage.Table{q.table: {Schema: r.schemas[q.table], Rows: r.base[q.table]}}, 64<<20)
	p, err := eng.Prepare(q.sql)
	if err != nil {
		return err
	}
	info, err := p.Maintenance()
	if err != nil {
		return err
	}
	spec, wf := info.Specs[0], q.wfs[0]
	if len(wf.pk) == 0 {
		return nil
	}
	pk := make([]int, len(spec.PK.IDs()))
	for i, id := range spec.PK.IDs() {
		pk[i] = int(id)
	}
	var small []storage.Tuple
	parts := 0
	sorted := sortedRows(r.base[q.table], spec.PK.AscSeq())
	for i := 0; i < len(sorted) && parts < 200; {
		j := i + 1
		for j < len(sorted) && cmpOn(sorted[i], sorted[j], pk) == 0 {
			j++
		}
		if j-i <= 64 {
			small = append(small, sorted[i:j]...)
			parts++
		}
		i = j
	}
	if len(small) == 0 {
		return nil
	}
	ok := make([]int, len(spec.OK))
	for i, e := range spec.OK {
		ok[i] = int(e.Attr)
	}
	want := oracleRank(small, pk, ok)
	got, err := window.Reference(small, spec)
	if err != nil {
		return err
	}
	for i := range small {
		if got[i].Int64() != want[i].Int64() {
			return fmt.Errorf("oracle self-check: %s row %d: window.Reference says %v, oracle %v", q.name, i, got[i], want[i])
		}
	}
	return nil
}

// check compares one outcome with the oracle: no error, the expected
// column names and types, and the expected row multiset (row count and
// order-independent digest).
func (r *runner) check(o outcome, q queryDef) error {
	if o.err != nil {
		return o.err
	}
	e, err := r.expect(q)
	if err != nil {
		return err
	}
	if o.rows != e.rows {
		return fmt.Errorf("%s: %d rows, want %d", q.name, o.rows, e.rows)
	}
	if len(o.cols) != len(e.cols) {
		return fmt.Errorf("%s: %d columns, want %d", q.name, len(o.cols), len(e.cols))
	}
	for i, c := range o.cols {
		if c.Name != e.cols[i].Name || c.Type != e.cols[i].Type {
			return fmt.Errorf("%s: column %d is %s %v, want %s %v", q.name, i, c.Name, c.Type, e.cols[i].Name, e.cols[i].Type)
		}
	}
	if o.digest != e.digest {
		return fmt.Errorf("%s: result digest differs from the oracle's", q.name)
	}
	return nil
}

func (r *runner) verify(out []outcome, mix []queryDef) {
	for _, o := range out {
		r.attempted++
		if err := r.check(o, mix[o.q]); err != nil {
			r.fail(err)
		}
	}
}

func (r *runner) tallyIngest(ing ingestResult, err error) {
	if err != nil {
		r.attempted++
		r.fail(fmt.Errorf("ingest: %w", err))
		return
	}
	r.attempted += len(ing.ackMs) + ing.failed
	r.failedOps += ing.failed
	for _, e := range ing.errs {
		if len(r.failures) < 20 {
			r.failures = append(r.failures, e.Error())
		}
	}
}

// timed is a run with tracing off: it reports the end-to-end metrics.
func (r *runner) timed() (map[string]float64, error) {
	ctx := context.Background()
	setups, err := r.setup(ctx, setupReps)
	if err != nil {
		return nil, err
	}
	defer r.sys.close()
	mix := r.w.mix()

	settle()
	heap := watchHeap()
	lr := closedLoop(ctx, r.sys.q, mix, r.window(), 1, nil)
	peak, cycles := heap.Stop()
	r.verify(lr.out, mix)
	if r.w.deterministic {
		r.checkPasses(lr, len(mix))
	}

	printByStatement(lr.out, mix)
	n := len(lr.out)
	fmt.Printf("samples: %d queries in %d passes over %.2fs (%d beyond p90), %d GC cycles; setups %v s\n",
		n, lr.passes, lr.wall.Seconds(), n-int(0.9*float64(n)), cycles, setups)
	return map[string]float64{
		"setup_s":      median(setups),
		"query_p50_ms": mixQuantile(lr.out, len(mix), 0.5),
		"query_p90_ms": mixQuantile(lr.out, len(mix), 0.9),
		"rows_per_s":   float64(rowsOf(lr.out)) / lr.wall.Seconds(),
		"peak_heap_mb": peak,
	}, nil
}

// checkPasses asserts the counter determinism of closed loops: every pass
// over the mix reads and writes the same blocks and makes the same
// comparisons.
func (r *runner) checkPasses(lr loadResult, n int) {
	type counts struct{ read, written, cmp int64 }
	var passes []counts
	for i := 0; i+n <= len(lr.out); i += n {
		var c counts
		for _, o := range lr.out[i : i+n] {
			if o.meta != nil {
				c.read += o.meta.BlocksRead
				c.written += o.meta.BlocksWritten
				c.cmp += o.meta.Comparisons
			}
		}
		passes = append(passes, c)
	}
	for i, c := range passes {
		if c != passes[0] {
			r.fail(fmt.Errorf("determinism: pass %d counted %+v, pass 0 %+v", i, c, passes[0]))
		}
	}
}

// traced is a run with tracing on: it reports the per-layer metrics.
// Alternate passes of its window are traced, so the traced and untraced
// halves run under the same conditions and their difference is the
// tracing overhead; the layer probes follow the window.
func (r *runner) traced() (map[string]float64, error) {
	ctx := context.Background()
	if _, err := r.setup(ctx, 1); err != nil {
		return nil, err
	}
	defer r.sys.close()
	mix := r.w.mix()
	m := map[string]float64{}

	settle()
	tr := newTracer()
	net0 := r.sys.netWritten()
	rt0 := readRuntime()
	lr := closedLoop(ctx, r.sys.q, mix, r.window(), 2, tr)
	rt1 := readRuntime()
	net1 := r.sys.netWritten()

	r.verify(lr.out, mix)
	if r.w.deterministic {
		r.checkPasses(lr, len(mix))
	}

	rows := float64(rowsOf(lr.out))
	m["go.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)
	m["go.alloc_bytes_per_row"] = float64(rt1.allocBytes-rt0.allocBytes) / rows
	m["go.allocs_per_row"] = float64(rt1.allocObjects-rt0.allocObjects) / rows
	m["loadgen.late_p99_ms"] = quantile(slices.Clone(lr.late), 0.99)
	m["trace.overhead_pct"] = tracingOverhead(lr.out)

	var read, written, cmp int64
	for _, o := range lr.out {
		if o.meta != nil {
			read += o.meta.BlocksRead
			written += o.meta.BlocksWritten
			cmp += o.meta.Comparisons
		}
	}
	nq := float64(len(lr.out))
	m["pagestore.blocks_read"] = float64(read) / nq
	m["pagestore.blocks_written"] = float64(written) / nq
	m["reorder.comparisons"] = float64(cmp) / nq
	m["net.bytes_per_row"] = float64(net1-net0) / rows

	base := map[string]*storage.Table{}
	for name, rows := range r.base {
		base[name] = &storage.Table{Schema: r.schemas[name], Rows: rows}
	}
	// Probe queries are checked like the load's; a wrong result counts
	// as a failed operation and the probe goes on.
	record := func(o outcome, q queryDef) {
		r.attempted++
		if err := r.check(o, q); err != nil {
			r.fail(err)
		}
	}
	probeService(ctx, tr, base, r.sys.mem, mix, record, m)
	if r.sys.cluster != nil {
		shardCounters(lr.out, r.sys.cluster.ShuffleImbalance(), m)
	} else if err := probeShard(ctx, tr, base["web_sales"], r.sys.mem, record, m); err != nil {
		return nil, err
	}

	eng := probeEngine(base, r.sys.mem)
	k, err := keyOf(eng, mix[0])
	if err != nil {
		return nil, err
	}
	ws := base["web_sales"]
	if err := probeStorageXsortSpillReorder(tr, ws.Rows, k, r.sys.mem, m); err != nil {
		return nil, err
	}
	if err := probeWindow(tr, ws.Rows, k, m); err != nil {
		return nil, err
	}
	if err := probeExec(ctx, tr, eng, ws, r.sys.mem, m); err != nil {
		return nil, err
	}
	if err := probeSQLStream(ctx, tr, eng, mix, m); err != nil {
		return nil, err
	}
	if err := probeDelta(ctx, tr, base, r.sys.mem, r.seed, m); err != nil {
		return nil, err
	}

	// Appends through the workload's own surface with a SUBSCRIBE cursor
	// open. Last, because they grow the system's table.
	pb := appendBatches(r.w.rows, r.seed+1, probeBatches, batchRows)
	ing, err := runIngest(ctx, r.sys.ingest, pb, probeInterval, len(r.base["web_sales"]))
	r.tallyIngest(ing, err)
	fmt.Printf("append probe: %d appends and %d delta batches over %.2fs\n  append ack ms: %v\n  delta lag ms: %v\n",
		len(ing.ackMs), len(ing.lagMs), ing.wall.Seconds(), summary(ing.ackMs), summary(ing.lagMs))
	m["ingest.append_p50_ms"] = quantile(ing.ackMs, 0.5)
	m["ingest.delta_lag_p90_ms"] = quantile(ing.lagMs, 0.9)

	path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", r.w.name, r.seed))
	if err := tr.write(path, os.Stdout); err != nil {
		return nil, err
	}
	return m, nil
}

// printByStatement prints each statement's sample count and latency
// quantiles: the pooled quantiles mix statements of different cost.
func printByStatement(out []outcome, mix []queryDef) {
	by := make([][]float64, len(mix))
	for _, o := range out {
		by[o.q] = append(by[o.q], ms(o.lat))
	}
	for i, xs := range by {
		if len(xs) > 0 {
			fmt.Printf("  %-4s n=%-4d p50 %9.2f ms  p90 %9.2f ms\n", mix[i].name, len(xs), quantile(xs, 0.5), quantile(xs, 0.9))
		}
	}
}

// summary lists the 10th to 90th percentiles of xs.
func summary(xs []float64) []string {
	var out []string
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		out = append(out, fmt.Sprintf("p%.0f=%.2f", q*100, quantile(slices.Clone(xs), q)))
	}
	return out
}
