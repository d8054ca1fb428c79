package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	windowdb "repro"
	"repro/internal/attrs"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/pagestore"
	"repro/internal/reorder"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/spill"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/window"
	"repro/internal/xsort"
)

// The layer probes call each module's public functions directly, on the
// workload's own table, keys and unit reorder memory M, with a span
// around every call. They run only in the traced run.

// probeReps is how many times each timed probe repeats; it reports the
// median.
const probeReps = 3

// sink keeps the compiler from discarding probe results.
var sink int

// timeIt runs fn probeReps times under spans named name and returns the
// median duration.
func timeIt(tr *tracer, parent *active, name string, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		sp := tr.Begin(parent, name)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// layerKey is the ordering the probes sort and compare on: the first
// window of the workload's first statement, →WPK ∘ WOK.
type layerKey struct {
	spec window.Spec
	seq  attrs.Seq
	pk   attrs.Seq
}

func keyOf(eng *windowdb.Engine, q queryDef) (layerKey, error) {
	p, err := eng.Prepare(q.sql)
	if err != nil {
		return layerKey{}, err
	}
	info, err := p.Maintenance()
	if err != nil {
		return layerKey{}, err
	}
	s := info.Specs[0]
	pk := s.PK.AscSeq()
	return layerKey{spec: s, seq: pk.Concat(s.OK), pk: pk}, nil
}

// probeEngine is a fresh engine over copies of the workload's base
// tables, so probes neither see nor disturb the measured system's caches.
func probeEngine(base map[string]*storage.Table, mem int) *windowdb.Engine {
	eng := windowdb.New(windowdb.Config{Scheme: windowdb.SchemeCSO, SortMemBytes: mem, Parallelism: 1})
	for name, t := range base {
		eng.Register(name, &storage.Table{Schema: t.Schema, Rows: append([]storage.Tuple(nil), t.Rows...)})
	}
	return eng
}

// probeStorageXsortSpillReorder times comparison, external sort, spill
// round trip and the three reorder operators on the workload's table.
func probeStorageXsortSpillReorder(tr *tracer, rows []storage.Tuple, k layerKey, mem int, m map[string]float64) error {
	root := tr.Begin(nil, "probe.sort_layers")
	defer root.End()

	// storage: CompareSeq over every adjacent pair, enough passes for ~20ms.
	n := len(rows) - 1
	passes := 1 + 2_000_000/n
	d, err := timeIt(tr, root, "storage.CompareSeq", func() error {
		s := 0
		for p := 0; p < passes; p++ {
			for i := 0; i < n; i++ {
				s += storage.CompareSeq(rows[i], rows[i+1], k.seq)
			}
		}
		sink += s
		return nil
	})
	if err != nil {
		return err
	}
	m["storage.compare_ns"] = float64(d) / float64(passes*n)

	// xsort: one external sort at M; the run counts must repeat exactly.
	var runs, merges []int
	d, err = timeIt(tr, root, "xsort.SortTuples", func() error {
		s := &xsort.Sorter{Key: k.seq, MemoryBytes: mem, Store: pagestore.NewMem(pagestore.DefaultBlockSize, &pagestore.Stats{})}
		// SortTuples sorts in place when the input fits in M.
		_, st, err := s.SortTuples(append([]storage.Tuple(nil), rows...))
		runs, merges = append(runs, st.InitialRuns), append(merges, st.MergePasses)
		return err
	})
	if err != nil {
		return err
	}
	m["xsort.sort_ms"] = ms(d)
	m["xsort.runs"] = float64(runs[0])
	m["xsort.merge_passes"] = float64(merges[0])
	for i := range runs {
		if runs[i] != runs[0] || merges[i] != merges[0] {
			return fmt.Errorf("determinism: xsort runs/merge passes %v/%v differ between identical sorts", runs, merges)
		}
	}

	// spill: write every row through a Writer and read it back.
	var size int64
	d, err = timeIt(tr, root, "spill.roundtrip", func() error {
		w, err := spill.NewWriter(pagestore.NewMem(pagestore.DefaultBlockSize, &pagestore.Stats{}))
		if err != nil {
			return err
		}
		for _, t := range rows {
			if err := w.Write(t); err != nil {
				return err
			}
		}
		f, err := w.Finish()
		if err != nil {
			return err
		}
		size = f.Size()
		r, err := spill.NewReader(f)
		if err != nil {
			return err
		}
		defer r.Close()
		got := 0
		for {
			_, ok, err := r.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			got++
		}
		if got != len(rows) {
			return fmt.Errorf("read back %d of %d tuples", got, len(rows))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["spill.roundtrip_ms"] = ms(d)
	m["spill.bytes_per_tuple"] = float64(size) / float64(len(rows))

	// reorder: FS, HS and SS, each drained on its own.
	cfg := func() reorder.Config {
		return reorder.Config{MemoryBytes: mem, Store: pagestore.NewMem(pagestore.DefaultBlockSize, &pagestore.Stats{})}
	}
	drain := func(s stream.Stream) error {
		got := 0
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			got++
		}
		if err := s.Close(); err != nil {
			return err
		}
		if got != len(rows) {
			return fmt.Errorf("drained %d of %d tuples", got, len(rows))
		}
		return nil
	}
	d, err = timeIt(tr, root, "reorder.FullSort", func() error {
		s, _, err := reorder.FullSort(stream.FromTuples(rows), k.seq, cfg())
		if err != nil {
			return err
		}
		return drain(s)
	})
	if err != nil {
		return err
	}
	m["reorder.fs_ms"] = ms(d)
	d, err = timeIt(tr, root, "reorder.HashedSort", func() error {
		s, _, err := reorder.HashedSort(stream.FromTuples(rows), reorder.HSOptions{HashKey: k.spec.PK.IDs(), SortKey: k.seq}, cfg())
		if err != nil {
			return err
		}
		return drain(s)
	})
	if err != nil {
		return err
	}
	m["reorder.hs_ms"] = ms(d)
	// SS input is already grouped on the partition key (sorted by the
	// benchmark's own comparator, outside the timed call).
	byPK := sortedRows(rows, k.pk)
	d, err = timeIt(tr, root, "reorder.SegmentedSort", func() error {
		s, _, err := reorder.SegmentedSort(stream.FromTuples(byPK), reorder.SSOptions{Alpha: k.pk, Beta: k.spec.OK}, cfg())
		if err != nil {
			return err
		}
		return drain(s)
	})
	if err != nil {
		return err
	}
	m["reorder.ss_ms"] = ms(d)
	return nil
}

// sortedRows returns rows ordered on seq (ascending attributes) with the
// oracle's comparator.
func sortedRows(rows []storage.Tuple, seq attrs.Seq) []storage.Tuple {
	ids := make([]int, len(seq))
	for i, e := range seq {
		ids[i] = int(e.Attr)
	}
	out := append([]storage.Tuple(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return cmpOn(out[i], out[j], ids) < 0 })
	return out
}

// probeWindow times window.Evaluate per function kind over input already
// in (WPK, WOK) order.
func probeWindow(tr *tracer, rows []storage.Tuple, k layerKey, m map[string]float64) error {
	root := tr.Begin(nil, "probe.window")
	defer root.End()
	sorted := sortedRows(rows, k.seq)
	qty := attrs.ID(6) // ws_quantity
	kinds := []struct {
		name string
		spec window.Spec
	}{
		{"rank", window.Spec{Name: "v", Kind: window.Rank, Arg: -1}},
		{"row_number", window.Spec{Name: "v", Kind: window.RowNumber, Arg: -1}},
		{"sum", window.Spec{Name: "v", Kind: window.Sum, Arg: qty}},
		{"lag", window.Spec{Name: "v", Kind: window.Lag, Arg: qty, N: 1}},
	}
	for _, kd := range kinds {
		spec := kd.spec
		spec.PK, spec.OK = k.spec.PK, k.spec.OK
		d, err := timeIt(tr, root, "window.Evaluate "+kd.name, func() error {
			s, err := window.Evaluate(stream.FromTuples(sorted), spec)
			if err != nil {
				return err
			}
			got := 0
			for {
				if _, ok := s.Next(); !ok {
					break
				}
				got++
			}
			if err := s.Close(); err != nil {
				return err
			}
			if got != len(sorted) {
				return fmt.Errorf("evaluated %d of %d rows", got, len(sorted))
			}
			return nil
		})
		if err != nil {
			return err
		}
		m["window.eval_ms."+kd.name] = ms(d)
	}
	return nil
}

// probeExec runs the Q6 chain (two windows) with exec.RunContext on the
// plan Engine.Prepare chose.
func probeExec(ctx context.Context, tr *tracer, eng *windowdb.Engine, table *storage.Table, mem int, m map[string]float64) error {
	root := tr.Begin(nil, "probe.exec")
	defer root.End()
	p, err := eng.Prepare(paperMix()[5].sql)
	if err != nil {
		return err
	}
	info, err := p.Maintenance()
	if err != nil {
		return err
	}
	var steps []float64
	d, err := timeIt(tr, root, "exec.RunContext", func() error {
		out, met, err := exec.RunContext(ctx, table, info.Specs, p.Plan(), exec.Config{MemoryBytes: mem, Parallelism: 1})
		if err != nil {
			return err
		}
		if out.Len() != table.Len() {
			return fmt.Errorf("chain returned %d of %d rows", out.Len(), table.Len())
		}
		for _, s := range met.Steps {
			steps = append(steps, ms(s.Duration))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["exec.chain_ms"] = ms(d)
	m["exec.step_ms"] = median(steps)
	return nil
}

// probeSQLStream prepares every statement of the mix, splits each
// cursor's time into first row and drain, and encodes and decodes the
// first statement's result as WCF1 column batches.
func probeSQLStream(ctx context.Context, tr *tracer, eng *windowdb.Engine, mix []queryDef, m map[string]float64) error {
	root := tr.Begin(nil, "probe.sql")
	defer root.End()
	var prep, first, drain []float64
	var result []storage.Tuple
	var arity int
	for i, q := range mix {
		sp := tr.Begin(root, "sql.Prepare "+q.name)
		t0 := time.Now()
		p, err := eng.Prepare(q.sql)
		prep = append(prep, ms(time.Since(t0)))
		sp.End()
		if err != nil {
			return err
		}
		sp = tr.Begin(root, "sql.first_row "+q.name)
		t0 = time.Now()
		cur, err := p.StreamContext(ctx)
		if err != nil {
			sp.End()
			return err
		}
		t, err := cur.Next()
		first = append(first, ms(time.Since(t0)))
		sp.End()
		if err != nil {
			cur.Close()
			return err
		}
		sp = tr.Begin(root, "sql.drain "+q.name)
		t0 = time.Now()
		for err == nil {
			if i == 0 {
				result = append(result, t)
			}
			t, err = cur.Next()
		}
		drain = append(drain, ms(time.Since(t0)))
		sp.End()
		if i == 0 {
			arity = len(cur.Columns())
		}
		cur.Close()
		if err != io.EOF {
			return fmt.Errorf("%s: %w", q.name, err)
		}
	}
	m["sql.prepare_ms"] = median(prep)
	m["sql.first_row_ms"] = median(first)
	m["sql.drain_ms"] = median(drain)

	// One result encodes in well under a millisecond, too short to time
	// on its own: each timed call repeats it over about 2M rows.
	reps := 1 + 2_000_000/len(result)
	var payload []byte
	d, err := timeIt(tr, root, "stream.AppendBatch", func() error {
		for i := 0; i < reps; i++ {
			b, err := stream.BatchFromTuples(result, arity)
			if err != nil {
				return err
			}
			payload = stream.AppendBatch(payload[:0], b)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["stream.encode_ms"] = ms(d) / float64(reps)
	m["stream.bytes_per_row"] = float64(len(payload)) / float64(len(result))
	d, err = timeIt(tr, root, "stream.DecodeBatch", func() error {
		for i := 0; i < reps; i++ {
			b, err := stream.DecodeBatch(payload, arity)
			if err != nil {
				return err
			}
			if b.Len() != len(result) {
				return fmt.Errorf("decoded %d of %d rows", b.Len(), len(result))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["stream.decode_ms"] = ms(d) / float64(reps)
	return nil
}

// probeDelta appends seeded batches through Service.Append on a fresh
// engine and applies each to a delta.Maintainer of the Q6 chain. It runs
// twice: the share of rows maintenance scanned must repeat exactly.
func probeDelta(ctx context.Context, tr *tracer, base map[string]*storage.Table, mem int, seed int64, m map[string]float64) error {
	root := tr.Begin(nil, "probe.delta")
	defer root.End()
	batches := appendBatches(base["web_sales"].Len(), seed, 20, 100)
	var fracs []float64
	var appendMs, applyMs []float64
	for rep := 0; rep < 2; rep++ {
		eng := probeEngine(map[string]*storage.Table{"web_sales": base["web_sales"]}, mem)
		svc := service.New(eng, service.Config{Slots: 1})
		p, err := eng.Prepare(paperMix()[5].sql)
		if err != nil {
			return err
		}
		info, err := p.Maintenance()
		if err != nil {
			return err
		}
		entry, err := eng.Stats("web_sales")
		if err != nil {
			return err
		}
		snap, gen := entry.Snapshot()
		mt, err := delta.NewMaintainer(info, snap, gen)
		if err != nil {
			return err
		}
		var scanned, full int64
		for _, b := range batches {
			sp := tr.Begin(root, "service.Append")
			t0 := time.Now()
			rid, wm, err := svc.Append(ctx, "web_sales", b, 0)
			appendMs = append(appendMs, ms(time.Since(t0)))
			sp.End()
			if err != nil {
				return err
			}
			sp = tr.Begin(root, "delta.Maintainer.Apply")
			t0 = time.Now()
			u, err := mt.Apply(delta.Batch{Table: "web_sales", Rows: b, StartRid: rid, Gen: wm})
			applyMs = append(applyMs, ms(time.Since(t0)))
			sp.End()
			if err != nil {
				return err
			}
			if u.Appended != len(b) || u.Watermark != wm {
				return fmt.Errorf("delta: batch at watermark %d applied as %d rows at %d", wm, u.Appended, u.Watermark)
			}
			scanned += u.RowsScanned
			full += u.FullRows
		}
		fracs = append(fracs, float64(scanned)/float64(full))
	}
	if fracs[0] != fracs[1] {
		return fmt.Errorf("determinism: delta.scanned_frac %v differs between identical runs", fracs)
	}
	m["delta.append_ms"] = median(appendMs)
	m["delta.apply_ms"] = median(applyMs)
	m["delta.scanned_frac"] = fracs[0]
	return nil
}

// serviceCounters turns a window's Service.Stats() delta and its queries'
// queue waits into the service metrics.
func serviceCounters(before, after service.Snapshot, queued []float64, m map[string]float64) {
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	sh := after.Subplans.Hits + after.Subplans.Attaches - before.Subplans.Hits - before.Subplans.Attaches
	sm := after.Subplans.Misses - before.Subplans.Misses
	m["service.queue_wait_ms"] = mean(queued)
	m["service.plan_cache_hit_rate"] = ratio(hits, hits+misses)
	m["service.subplan_shared_rate"] = ratio(sh, sh+sm)
	m["service.subplan_invalidations"] = float64(after.Subplans.Invalidations - before.Subplans.Invalidations)
	m["service.rejected"] = float64(after.Rejected - before.Rejected)
	m["service.max_in_flight"] = float64(after.MaxInFlight)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// probeService replays the mix through a 1-slot Service from two clients
// on the streaming path. Workloads without a Service of their own
// (paper-spill, cluster-shuffle) take their service metrics from it.
func probeService(ctx context.Context, tr *tracer, base map[string]*storage.Table, mem int, mix []queryDef, record func(outcome, queryDef), m map[string]float64) {
	root := tr.Begin(nil, "probe.service")
	defer root.End()
	svc := service.New(probeEngine(base, mem), service.Config{Slots: 1})
	before := svc.Stats()
	svc.ResetMaxInFlight()
	var mu sync.Mutex
	var out []outcome
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range mix {
				o := runQuery(ctx, svc, q, tr, time.Now())
				o.q = i
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var queued []float64
	for _, o := range out {
		record(o, mix[o.q])
		if o.meta != nil {
			queued = append(queued, ms(o.meta.Queued))
		}
	}
	serviceCounters(before, svc.Stats(), queued, m)
}

// shardCounters reads the shard metrics off cluster query outcomes:
// first row and drain as the client saw them, and node execute time from
// the span tree the cluster returns.
func shardCounters(out []outcome, imbalance float64, m map[string]float64) {
	var first, drain, node []float64
	for _, o := range out {
		first = append(first, ms(o.firstRow))
		drain = append(drain, ms(o.lat-o.firstRow))
		if o.meta != nil {
			node = append(node, nodeExecute(o.meta.Trace))
		}
	}
	m["shard.first_row_ms"] = median(first)
	m["shard.drain_ms"] = median(drain)
	m["shard.node_execute_ms"] = median(node)
	m["shard.shuffle_imbalance"] = imbalance
}

// nodeExecute sums the per-node execution spans of a cluster trace: the
// "execute" phase of shuffle rounds, or a scattered node's whole span.
func nodeExecute(sp *trace.Span) float64 {
	if sp == nil {
		return 0
	}
	if strings.HasPrefix(sp.Name, "node ") {
		for _, c := range sp.Children {
			if c.Name == "execute" {
				return c.DurationMillis
			}
		}
		return sp.DurationMillis
	}
	total := 0.0
	for _, c := range sp.Children {
		total += nodeExecute(c)
	}
	return total
}

// probeShard runs Q6d and Q6 twice on a 2-node in-process cluster over
// the workload's table (for workloads without a cluster of their own).
func probeShard(ctx context.Context, tr *tracer, base *storage.Table, mem int, record func(outcome, queryDef), m map[string]float64) error {
	root := tr.Begin(nil, "probe.shard")
	defer root.End()
	cfg := windowdb.Config{Scheme: windowdb.SchemeCSO, SortMemBytes: mem, Parallelism: 1}
	transports := []shard.Transport{
		shard.NewLocal(service.New(windowdb.New(cfg), service.Config{Slots: 1})),
		shard.NewLocal(service.New(windowdb.New(cfg), service.Config{Slots: 1})),
	}
	c, err := shard.New(shard.Config{Engine: cfg}, transports)
	if err != nil {
		return err
	}
	if err := c.RegisterSharded(ctx, "web_sales", &storage.Table{Schema: base.Schema, Rows: append([]storage.Tuple(nil), base.Rows...)}, cItem); err != nil {
		return err
	}
	var out []outcome
	var imbalance float64
	for rep := 0; rep < 2; rep++ {
		for _, q := range shuffleMix() {
			o := runQuery(ctx, c, q, tr, time.Now())
			record(o, q)
			if q.name == "Q6d" {
				imbalance = c.ShuffleImbalance()
			}
			out = append(out, o)
		}
	}
	shardCounters(out, imbalance, m)
	return nil
}
