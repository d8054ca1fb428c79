package sql

import (
	"context"
	"io"
	"slices"
	"testing"

	"repro/internal/attrs"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/storage"
)

// TestShardPhasesComposeToExecute: manually hash-partitioning the table,
// draining a shard-local Open per partition, concatenating and finalizing
// must reproduce the full-statement Open exactly — the algebraic identity the
// cluster's scatter path rests on.
func TestShardPhasesComposeToExecute(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 700, Seed: 3})
	src := `SELECT ws_item_sk, ws_order_number,
	 rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS r
	 FROM web_sales WHERE ws_quantity <= 70 ORDER BY ws_item_sk, ws_order_number LIMIT 200`
	key := attrs.MakeSet(attrs.ID(datagen.ColItem))

	full := catalog.New()
	full.Register("web_sales", ws)
	runner := Runner{Catalog: full, Exec: exec.Config{MemoryBytes: 1 << 20}}
	prep, err := runner.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.ShardLocal(key) {
		t.Fatal("statement should be shard-local on the item key")
	}
	want, err := drain(context.Background(), prep, Input{})
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	parts := exec.PartitionRows(ws.Rows, key.IDs(), shards)
	var concat *storage.Table
	for i := 0; i < shards; i++ {
		cat := catalog.New()
		pt := storage.NewTable(ws.Schema)
		pt.Rows = parts[i]
		cat.Register("web_sales", pt)
		r := Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 1 << 20}}
		p, err := r.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := drain(context.Background(), p, Input{ShardLocal: true})
		if err != nil {
			t.Fatal(err)
		}
		if concat == nil {
			concat = storage.NewTable(res.Table.Schema)
		}
		concat.Rows = append(concat.Rows, res.Table.Rows...)
	}
	got := prep.FinalizeConcat(concat)
	if got.FinalSort != "full" {
		t.Fatalf("finalize sort %q, want full", got.FinalSort)
	}
	if got.Table.Len() != want.Table.Len() {
		t.Fatalf("row count %d, want %d", got.Table.Len(), want.Table.Len())
	}
	for i := range want.Table.Rows {
		a := storage.AppendTuple(nil, got.Table.Rows[i])
		b := storage.AppendTuple(nil, want.Table.Rows[i])
		if !slices.Equal(a, b) {
			t.Fatalf("row %d differs after scatter composition", i)
		}
	}
}

// TestExecuteOverContext: a plan prepared against a schema-only stub opens
// over externally supplied rows (Input.Table, the gather path) and matches
// a directly prepared execution.
func TestExecuteOverContext(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 400, Seed: 5})
	src := `SELECT ws_order_number, rank() OVER (ORDER BY ws_sold_time_sk) AS r FROM web_sales ORDER BY ws_order_number`

	stub := catalog.New()
	stub.RegisterStub("web_sales", ws.Schema, catalog.TableStats{
		Rows:  int64(ws.Len()),
		Bytes: int64(ws.ByteSize()),
		Distinct: func(set attrs.Set) int64 {
			return int64(ws.DistinctCount(set))
		},
	})
	rStub := Runner{Catalog: stub, Exec: exec.Config{MemoryBytes: 1 << 20}}
	prep, err := rStub.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := drain(context.Background(), prep, Input{Table: ws})
	if err != nil {
		t.Fatal(err)
	}

	full := catalog.New()
	full.Register("web_sales", ws)
	rFull := Runner{Catalog: full, Exec: exec.Config{MemoryBytes: 1 << 20}}
	want, err := drainQuery(&rFull, src)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.Len() != want.Table.Len() {
		t.Fatalf("rows %d, want %d", got.Table.Len(), want.Table.Len())
	}
	for i := range want.Table.Rows {
		a := storage.AppendTuple(nil, got.Table.Rows[i])
		b := storage.AppendTuple(nil, want.Table.Rows[i])
		if !slices.Equal(a, b) {
			t.Fatalf("row %d differs between stub-over and direct execution", i)
		}
	}
}

// TestSegmentPlan pins the per-segment routing predicate: key-divergent
// chains with non-empty per-segment keys split, empty PARTITION BY voids
// the split, and common-key chains collapse to one segment.
func TestSegmentPlan(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 300, Seed: 2})
	cat := catalog.New()
	cat.Register("web_sales", ws)
	r := Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 1 << 20}}
	cases := []struct {
		src      string
		segments int // 0 = no segment plan
	}{
		// Disjoint WPKs: one segment per key.
		{`SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		  rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b FROM web_sales`, 2},
		{`SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		  rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b,
		  rank() OVER (PARTITION BY ws_bill_customer_sk ORDER BY ws_sold_date_sk) AS c FROM web_sales`, 3},
		// A shared key keeps the chain in one segment.
		{`SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
		  rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_bill_customer_sk) AS b FROM web_sales`, 1},
		// An empty PARTITION BY leaves a segment keyless: no plan.
		{`SELECT rank() OVER (ORDER BY ws_sold_time_sk) AS a,
		  rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS b FROM web_sales`, 0},
		// Window-less statements have no chain to segment.
		{`SELECT ws_item_sk FROM web_sales`, 0},
	}
	for _, tc := range cases {
		prep, err := r.Prepare(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		sp := prep.SegmentPlan()
		got := 0
		if sp != nil {
			got = sp.Segments()
		}
		if got != tc.segments {
			t.Errorf("SegmentPlan(%q) = %d segments, want %d", tc.src, got, tc.segments)
		}
		if sp == nil {
			continue
		}
		// Every segment key must be non-empty and the order a permutation.
		seen := map[int]bool{}
		for _, id := range sp.Order {
			if seen[id] {
				t.Fatalf("wf %d appears twice in %v", id, sp.Order)
			}
			seen[id] = true
		}
		for i, key := range sp.Keys {
			if len(key) == 0 {
				t.Fatalf("segment %d of %q has an empty key", i, tc.src)
			}
		}
	}
}

// TestSegmentRunnerComposesToExecute is the algebraic identity the
// cluster's shuffle route rests on: hash-partitioning the table across N
// "nodes", running each segment per node with a re-shuffle on the
// segment's key in between, concatenating the final segment's projected
// streams and finalizing at a coordinator reproduces the full-statement
// Open exactly — WHERE, DISTINCT, ORDER BY and LIMIT included.
func TestSegmentRunnerComposesToExecute(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 900, Seed: 4})
	src := `SELECT ws_order_number, ws_warehouse_sk,
	 rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_sold_date_sk) AS a,
	 rank() OVER (PARTITION BY ws_warehouse_sk ORDER BY ws_sold_date_sk) AS b
	 FROM web_sales WHERE ws_quantity <= 80 ORDER BY ws_order_number, b LIMIT 300`

	full := catalog.New()
	full.Register("web_sales", ws)
	runner := Runner{Catalog: full, Exec: exec.Config{MemoryBytes: 1 << 20}}
	prep, err := runner.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	sp := prep.SegmentPlan()
	if sp == nil || sp.Segments() != 2 {
		t.Fatalf("want a 2-segment plan, got %+v", sp)
	}
	want, err := drain(context.Background(), prep, Input{})
	if err != nil {
		t.Fatal(err)
	}

	const nodes = 3
	shardKey := attrs.MakeSet(attrs.ID(datagen.ColItem))
	parts := exec.PartitionRows(ws.Rows, shardKey.IDs(), nodes)
	runners := make([]*SegmentRunner, nodes)
	cur := make([]*storage.Table, nodes)
	for i := 0; i < nodes; i++ {
		cat := catalog.New()
		pt := storage.NewTable(ws.Schema)
		pt.Rows = parts[i]
		cat.Register("web_sales", pt)
		r := Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 1 << 20}}
		p, err := r.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		if runners[i], err = p.Segments(sp); err != nil {
			t.Fatal(err)
		}
		if cur[i], err = runners[i].FilterBase(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// reshuffle redistributes every node's current rows on key, exactly as
	// the nodes would exchange them over the wire.
	reshuffle := func(key []int, schema *storage.Schema) {
		ids := make([]attrs.ID, len(key))
		for i, c := range key {
			ids[i] = attrs.ID(c)
		}
		next := make([]*storage.Table, nodes)
		for i := range next {
			next[i] = storage.NewTable(schema)
		}
		for _, t := range cur {
			for p, rows := range exec.PartitionRows(t.Rows, ids, nodes) {
				next[p].Rows = append(next[p].Rows, rows...)
			}
		}
		cur = next
	}

	// Run every segment with a re-shuffle on its key first (always legal;
	// the cluster skips the first one when the shard key already covers
	// segment 0's key).
	for seg := 0; seg < sp.Segments()-1; seg++ {
		reshuffle(sp.Keys[seg], runners[0].InputSchema(seg))
		for i := 0; i < nodes; i++ {
			out, _, err := runners[i].Run(context.Background(), seg, cur[i])
			if err != nil {
				t.Fatal(err)
			}
			cur[i] = out
		}
	}
	last := sp.Segments() - 1
	reshuffle(sp.Keys[last], runners[0].InputSchema(last))
	var concat *storage.Table
	for i := 0; i < nodes; i++ {
		c, err := runners[i].StreamFinal(context.Background(), cur[i])
		if err != nil {
			t.Fatal(err)
		}
		for {
			row, err := c.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if concat == nil {
				concat = storage.NewTable(storage.NewSchema(c.Columns()...))
			}
			concat.Rows = append(concat.Rows, row)
		}
	}
	got := prep.FinalizeConcat(concat)
	if got.Table.Len() != want.Table.Len() {
		t.Fatalf("rows %d, want %d", got.Table.Len(), want.Table.Len())
	}
	for i := range want.Table.Rows {
		a := storage.AppendTuple(nil, got.Table.Rows[i])
		b := storage.AppendTuple(nil, want.Table.Rows[i])
		if !slices.Equal(a, b) {
			t.Fatalf("row %d differs after segment composition", i)
		}
	}
}

// TestShardLocalPredicate pins the routing rule on crafted chains.
func TestShardLocalPredicate(t *testing.T) {
	ws := datagen.WebSales(datagen.WebSalesConfig{Rows: 50, Seed: 1})
	cat := catalog.New()
	cat.Register("web_sales", ws)
	r := Runner{Catalog: cat, Exec: exec.Config{MemoryBytes: 1 << 20}}
	item := attrs.MakeSet(attrs.ID(datagen.ColItem))
	itemBill := attrs.MakeSet(attrs.ID(datagen.ColItem), attrs.ID(datagen.ColBill))
	cases := []struct {
		src  string
		key  attrs.Set
		want bool
	}{
		// Chain common key {item,bill} covers both {item} and {item,bill}.
		{`SELECT rank() OVER (PARTITION BY ws_item_sk, ws_bill_customer_sk ORDER BY ws_quantity) AS r FROM web_sales`, item, true},
		{`SELECT rank() OVER (PARTITION BY ws_item_sk, ws_bill_customer_sk ORDER BY ws_quantity) AS r FROM web_sales`, itemBill, true},
		// Shard key {item,bill} is not contained in WPK {item}: one
		// item-partition spans shards (its rows hash by bill too), so the
		// chain cannot run shard-locally.
		{`SELECT rank() OVER (PARTITION BY ws_item_sk ORDER BY ws_quantity) AS r FROM web_sales`, itemBill, false},
		// Empty shard key never routes shard-local.
		{`SELECT ws_item_sk FROM web_sales`, 0, false},
		// Window-less statements distribute trivially.
		{`SELECT ws_item_sk FROM web_sales`, item, true},
	}
	for _, tc := range cases {
		prep, err := r.Prepare(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := prep.ShardLocal(tc.key); got != tc.want {
			t.Errorf("ShardLocal(%q, %v) = %v, want %v", tc.src, tc.key, got, tc.want)
		}
	}
}
