package windowdb

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/attrs"
	"repro/internal/datagen"
	"repro/internal/paper"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/window"
)

func testEngine(scheme sql.Scheme) *Engine {
	eng := New(Config{Scheme: scheme, SortMemBytes: 1 << 20, BlockSize: 4096})
	eng.Register("emptab", datagen.Emptab())
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 2000, Seed: 3, PadBytes: 16}))
	return eng
}

func TestEngineQuery(t *testing.T) {
	eng := testEngine(SchemeCSO)
	res, err := eng.Query(`SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab ORDER BY r, empnum`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 10 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	if res.Table.Rows[0][0].Int64() != 2 {
		t.Errorf("top earner should be empnum 2, got %s", res.Table.Rows[0][0])
	}
	// The drained result keeps the cursor's metadata, planner estimate
	// included.
	if res.EstRows != 10 || res.Plan == nil || res.FinalSort == "none" {
		t.Errorf("est_rows=%d plan=%v final_sort=%q, want 10, a plan and a sort disposition", res.EstRows, res.Plan, res.FinalSort)
	}
}

func TestEngineEvaluateWindows(t *testing.T) {
	eng := testEngine(SchemeCSO)
	specs := paper.Q6()
	out, metrics, err := eng.EvaluateWindows("web_sales", specs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Len() != datagen.WebSalesSchema().Len()+2 {
		t.Errorf("expected two derived columns")
	}
	if metrics == nil || len(metrics.Steps) != 2 {
		t.Errorf("metrics missing")
	}
}

func TestEnginePlanSchemes(t *testing.T) {
	specs := paper.Q6()
	for _, scheme := range []sql.Scheme{SchemeCSO, SchemeBFO, SchemeORCL, SchemePSQL} {
		eng := testEngine(scheme)
		plan, err := eng.Plan("web_sales", specs)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if plan.Scheme != string(scheme) {
			t.Errorf("plan scheme %q != %q", plan.Scheme, scheme)
		}
	}
	// Ablation variants through the facade.
	eng := New(Config{DisableSS: true, SortMemBytes: 1 << 20})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 500, Seed: 1, PadBytes: 8}))
	plan, err := eng.Plan("web_sales", specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ss := plan.ReorderCounts(); ss != 0 {
		t.Errorf("DisableSS plan still uses SS: %s", plan)
	}
}

func TestEngineParallel(t *testing.T) {
	eng := testEngine(SchemeCSO)
	spec := window.Spec{
		Kind: window.Rank, Arg: -1,
		PK: attrs.MakeSet(attrs.ID(datagen.ColItem)),
		OK: attrs.AscSeq(attrs.ID(datagen.ColSoldTime)),
	}
	out, err := eng.EvaluateParallel("web_sales", spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2000 {
		t.Errorf("rows = %d", out.Len())
	}
}

// TestEngineParallelism — Config.Parallelism routes EvaluateWindows and
// Query through the parallel chain executor with results identical to the
// sequential engine's.
func TestEngineParallelism(t *testing.T) {
	seq := testEngine(SchemeCSO)
	par := New(Config{Scheme: SchemeCSO, SortMemBytes: 1 << 20, BlockSize: 4096, Parallelism: 4})
	par.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 2000, Seed: 3, PadBytes: 16}))

	specs := paper.Q6()
	seqOut, _, err := seq.EvaluateWindows("web_sales", specs)
	if err != nil {
		t.Fatal(err)
	}
	parOut, metrics, err := par.EvaluateWindows("web_sales", specs)
	if err != nil {
		t.Fatal(err)
	}
	if metrics == nil || len(metrics.Steps) != len(specs) {
		t.Fatalf("parallel metrics missing per-step entries")
	}
	if parOut.Len() != seqOut.Len() {
		t.Fatalf("parallel rows = %d, sequential %d", parOut.Len(), seqOut.Len())
	}
	byTag := func(tb *storage.Table) map[int64]string {
		m := make(map[int64]string, tb.Len())
		for _, r := range tb.Rows {
			m[r[datagen.ColOrderNumber].Int64()] = string(storage.AppendTuple(nil, r))
		}
		return m
	}
	want, got := byTag(seqOut), byTag(parOut)
	for tag, row := range want {
		if got[tag] != row {
			t.Fatalf("row %d differs between sequential and parallel engines", tag)
		}
	}

	// The SQL path routes too, and ORDER BY keeps results deterministic.
	const q = `SELECT ws_order_number, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r
		FROM web_sales ORDER BY ws_order_number`
	seqRes, err := seq.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := par.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Parallelism != 4 {
		t.Errorf("Result.Parallelism = %d, want 4", parRes.Parallelism)
	}
	for i := range seqRes.Table.Rows {
		a := string(storage.AppendTuple(nil, seqRes.Table.Rows[i]))
		b := string(storage.AppendTuple(nil, parRes.Table.Rows[i]))
		if a != b {
			t.Fatalf("query row %d differs between engines", i)
		}
	}
}

func TestEngineMFVBypass(t *testing.T) {
	eng := New(Config{MFVBypass: true, SortMemBytes: 32 << 10, BlockSize: 4096})
	eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 4000, Seed: 2, PadBytes: 16}))
	spec := window.Spec{
		Kind: window.Rank, Arg: -1,
		PK: attrs.MakeSet(attrs.ID(datagen.ColWarehouse)),
		OK: attrs.AscSeq(attrs.ID(datagen.ColSoldTime)),
	}
	out, _, err := eng.EvaluateWindows("web_sales", []window.Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check one derived column against the reference evaluator.
	entry, _ := eng.Stats("web_sales")
	want, err := window.Reference(entry.Table().Rows, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantByTag := map[int64]storage.Value{}
	for i, v := range want {
		wantByTag[entry.Table().Rows[i][datagen.ColOrderNumber].Int64()] = v
	}
	last := out.Schema.Len() - 1
	for _, row := range out.Rows {
		if !storage.Equal(row[last], wantByTag[row[datagen.ColOrderNumber].Int64()]) {
			t.Fatalf("MFV bypass changed results")
		}
	}
}

func TestEngineErrors(t *testing.T) {
	eng := testEngine(SchemeCSO)
	if _, err := eng.Query("SELECT * FROM missing"); err == nil {
		t.Errorf("missing table should fail")
	}
	if _, err := eng.Table("missing"); err == nil {
		t.Errorf("missing table lookup should fail")
	}
	if _, err := eng.Plan("missing", paper.Q6()); err == nil {
		t.Errorf("plan over missing table should fail")
	}
	bad := New(Config{Scheme: "NOPE"})
	bad.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 10, Seed: 1, PadBytes: 8}))
	if _, err := bad.Plan("web_sales", paper.Q6()); err == nil {
		t.Errorf("unknown scheme should fail")
	}
}

func TestTablesListing(t *testing.T) {
	eng := testEngine(SchemeCSO)
	names := eng.Tables()
	if len(names) != 2 || names[0] != "emptab" || names[1] != "web_sales" {
		t.Errorf("Tables() = %v", names)
	}
}

// TestEngineConcurrentRegisterQuery exercises the documented concurrency
// contract: unrestricted Query/QueryContext/Prepare/EvaluateWindows from
// many goroutines concurrent with Register on the same engine. Under
// -race this is the engine's thread-safety proof.
func TestEngineConcurrentRegisterQuery(t *testing.T) {
	eng := testEngine(SchemeCSO)
	const q = `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := eng.QueryContext(ctx, q); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			// Replace web_sales (same schema, fresh entry) while queries run,
			// and keep the statistics caches busy on the side.
			eng.Register("web_sales", datagen.WebSales(datagen.WebSalesConfig{Rows: 1000 + 100*i, Seed: int64(i), PadBytes: 16}))
			if _, _, err := eng.EvaluateWindows("web_sales", []window.Spec{{
				Name: "r", Kind: window.Rank, Arg: -1,
				PK: attrs.MakeSet(paper.Item), PKOrder: attrs.AscSeq(paper.Item),
				OK: attrs.AscSeq(paper.Time),
			}}); err != nil {
				t.Errorf("evaluate: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if gen := eng.Generation(); gen < 10 {
		t.Fatalf("generation %d, want >= 10 (2 initial + 8 replacements)", gen)
	}
}

// TestEngineQueryContextCancel: a cancelled context stops the chain at the
// next step boundary.
func TestEngineQueryContextCancel(t *testing.T) {
	eng := testEngine(SchemeCSO)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.QueryContext(ctx, `SELECT ws_item_sk, rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_time_sk) AS r FROM web_sales`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEnginePrepareReuse: one prepared statement executes repeatedly (and
// concurrently) with identical results, skipping re-planning.
func TestEnginePrepareReuse(t *testing.T) {
	eng := testEngine(SchemeCSO)
	p, err := eng.Prepare(`SELECT empnum, rank() OVER (ORDER BY salary DESC NULLS LAST) AS r FROM emptab ORDER BY r, empnum`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Generation() != eng.Generation() {
		t.Fatalf("prepared under generation %d, engine at %d", p.Generation(), eng.Generation())
	}
	// run opens the one prepared statement and drains its cursor.
	run := func() (*Result, error) {
		cur, err := p.Open(context.Background(), sql.Input{})
		if err != nil {
			return nil, err
		}
		return DrainResult(NewRows(&cursorSource{cur: cur}))
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := run()
				if err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				if res.Table.Len() != want.Table.Len() {
					t.Errorf("rows = %d, want %d", res.Table.Len(), want.Table.Len())
					return
				}
				for ri, row := range res.Table.Rows {
					for ci := range row {
						if storage.Compare(row[ci], want.Table.Rows[ri][ci]) != 0 {
							t.Errorf("row %d col %d differs across executions", ri, ci)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
