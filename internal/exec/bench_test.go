package exec

import (
	"testing"

	"repro/internal/attrs"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/window"
)

// BenchmarkRunChain measures the sequential chain executor on a two-step
// rank chain over a synthetic wide table — the per-row cost of the
// reorder+evaluate hot loop (arena conversion, in-place extension). The
// in-memory case sorts within a 64 MB budget; the spill case gives each
// sort 1 MB, so every step forms runs and merges them back through the
// page store (the spill round trip: encode, page I/O, arena decode).
func BenchmarkRunChain(b *testing.B) {
	const rows, wide = 50_000, 12
	cols := make([]storage.Column, wide)
	for i := range cols {
		cols[i] = storage.Column{Name: string(rune('a' + i)), Type: storage.TypeInt}
	}
	table := storage.NewTable(storage.NewSchema(cols...))
	table.Rows = make([]storage.Tuple, rows)
	for i := range table.Rows {
		t := make(storage.Tuple, wide)
		for c := range t {
			t[c] = storage.Int(int64((i*31 + c*7) % 97))
		}
		table.Rows[i] = t
	}
	pk := attrs.MakeSet(0)
	specs := []window.Spec{
		{Kind: window.Rank, PK: pk, OK: attrs.AscSeq(1), Arg: -1, Name: "r1"},
		{Kind: window.Rank, PK: pk, OK: attrs.AscSeq(2), Arg: -1, Name: "r2"},
	}
	plan := &core.Plan{Steps: []core.Step{
		{WF: specs[0].WF(0), Reorder: core.ReorderFS, SortKey: pk.AscSeq().Concat(specs[0].OK)},
		{WF: specs[1].WF(1), Reorder: core.ReorderFS, SortKey: pk.AscSeq().Concat(specs[1].OK)},
	}}
	for _, bc := range []struct {
		name string
		mem  int
	}{{"inmem", 64 << 20}, {"spill", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{MemoryBytes: bc.mem}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, m, err := Run(table, specs, plan, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if (m.BlocksWritten > 0) != (bc.name == "spill") {
					b.Fatalf("%s: %d blocks written", bc.name, m.BlocksWritten)
				}
			}
		})
	}
}

// BenchmarkPartitionRows measures the scatter/shuffle partitioning hash.
func BenchmarkPartitionRows(b *testing.B) {
	const rows = 100_000
	tuples := make([]storage.Tuple, rows)
	for i := range tuples {
		tuples[i] = storage.Tuple{storage.Int(int64(i % 1009)), storage.StringVal("payload"), storage.Float(float64(i))}
	}
	ids := []attrs.ID{0, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partitionRows(tuples, ids, 4)
	}
}
