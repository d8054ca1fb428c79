package xsort_test

import (
	"testing"

	"repro/internal/attrs"
	"repro/internal/datagen"
	"repro/internal/pagestore"
	"repro/internal/storage"
	"repro/internal/xsort"
)

// BenchmarkExternalSort sorts web_sales rows at the paper's "50MB" point
// scaled to this table: a 6-block budget of 8 KiB pages, so the merge
// fan-in is 5 and the sort runs intermediate merge passes before the
// final merge. It reports the paper's counters per sort next to the
// time: key comparisons, merge passes and blocks read and written.
func BenchmarkExternalSort(b *testing.B) {
	const rows, memBlocks = 20_000, 6
	tab := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 1})
	sch := tab.Schema
	key := attrs.AscSeq(sch.MustCol("ws_item_sk"), sch.MustCol("ws_sold_date_sk"), sch.MustCol("ws_quantity"))
	in := make([]storage.Tuple, rows)
	var cmps int64
	var passes, blocks int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(in, tab.Rows)
		stats := &pagestore.Stats{}
		s := &xsort.Sorter{
			Key:         key,
			MemoryBytes: memBlocks * pagestore.DefaultBlockSize,
			Store:       pagestore.NewMem(pagestore.DefaultBlockSize, stats),
			Comparisons: &cmps,
		}
		out, st, err := s.SortTuples(in)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != rows || st.MergePasses < 1 {
			b.Fatalf("sorted %d rows in %d intermediate merge passes; want %d rows and at least one pass", len(out), st.MergePasses, rows)
		}
		passes += st.MergePasses
		blocks += int(stats.TotalBlocks())
	}
	b.ReportMetric(float64(cmps)/float64(b.N), "cmps/op")
	b.ReportMetric(float64(passes)/float64(b.N), "passes/op")
	b.ReportMetric(float64(blocks)/float64(b.N), "blocks/op")
}
