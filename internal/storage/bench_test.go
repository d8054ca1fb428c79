package storage_test

import (
	"testing"

	"repro/internal/attrs"
	"repro/internal/datagen"
	"repro/internal/storage"
)

// BenchmarkCompareSeq measures key comparisons over web_sales rows on the
// (ws_item_sk, ws_sold_date_sk, ws_quantity) key: the sort operators'
// inner loop. One op compares every pair of neighbouring rows; ns/cmp is
// the cost of one CompareSeq.
func BenchmarkCompareSeq(b *testing.B) {
	const rows = 4096
	tab := datagen.WebSales(datagen.WebSalesConfig{Rows: rows, Seed: 1})
	sch := tab.Schema
	key := attrs.AscSeq(sch.MustCol("ws_item_sk"), sch.MustCol("ws_sold_date_sk"), sch.MustCol("ws_quantity"))
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		for j := 1; j < rows; j++ {
			sum += storage.CompareSeq(tab.Rows[j-1], tab.Rows[j], key)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(rows-1)), "ns/cmp")
	if sum == b.N*(rows-1) {
		b.Fatal("every comparison returned +1")
	}
}
