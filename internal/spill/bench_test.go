package spill

import (
	"testing"

	"repro/internal/pagestore"
	"repro/internal/storage"
)

// BenchmarkSpillRoundTrip writes a run of web_sales-shaped tuples (ints,
// floats, a string) through a Writer into an 8 KiB-page memory store and
// decodes it back — the per-tuple cost of one spill round trip.
func BenchmarkSpillRoundTrip(b *testing.B) {
	const rows = 20_000
	tuples := make([]storage.Tuple, rows)
	for i := range tuples {
		t := make(storage.Tuple, 0, 12)
		for c := 0; c < 9; c++ {
			t = append(t, storage.Int(int64((i*31+c*7)%1009)))
		}
		tuples[i] = append(t, storage.Float(float64(i)/3), storage.Null, storage.StringVal("payload-string"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewWriter(pagestore.NewMem(pagestore.DefaultBlockSize, nil))
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tuples {
			if err := w.Write(t); err != nil {
				b.Fatal(err)
			}
		}
		f, err := w.Finish()
		if err != nil {
			b.Fatal(err)
		}
		rd, err := NewReader(f)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			_, ok, err := rd.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		rd.Close()
		f.Release()
		if n != rows {
			b.Fatalf("read back %d of %d tuples", n, rows)
		}
	}
}
