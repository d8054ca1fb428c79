package xsort

import (
	"bytes"
	"container/heap"
	"hash/fnv"
	"io"
	"math/rand"
	"testing"

	"repro/internal/attrs"
	"repro/internal/pagestore"
	"repro/internal/spill"
	"repro/internal/storage"
)

// mixedRows are rows with a string key, an int key and a unique tag; both
// keys carry NULLs and the strings include empties and long values.
func mixedRows(rng *rand.Rand, n int) []storage.Tuple {
	words := []string{"", "a", "ab", "b", "item-0042", "zz", "a longer string value that is over thirty bytes"}
	rows := make([]storage.Tuple, n)
	for i := range rows {
		s := storage.StringVal(words[rng.Intn(len(words))])
		if rng.Intn(9) == 0 {
			s = storage.Null
		}
		k := storage.Int(rng.Int63n(40) - 20)
		if rng.Intn(7) == 0 {
			k = storage.Null
		}
		rows[i] = storage.Tuple{s, k, storage.Int(int64(i))}
	}
	return rows
}

// outputDigest is FNV-64a over the spill encoding of tuples in order.
func outputDigest(tuples []storage.Tuple) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, t := range tuples {
		buf = storage.AppendTuple(buf[:0], t)
		h.Write(buf)
	}
	return h.Sum64()
}

// TestMultiPassGolden pins what a multi-pass external sort over strings
// and NULLs does: its output order, its comparison count, its block I/O
// and its pass structure. The figures were recorded before intermediate
// merges moved encoded records instead of decoded tuples; they are the
// paper's cost counters and must not move with the merge's mechanics.
func TestMultiPassGolden(t *testing.T) {
	rows := mixedRows(rand.New(rand.NewSource(11)), 6000)
	stats := &pagestore.Stats{}
	var cmps int64
	s := &Sorter{
		Key:         attrs.Seq{{Attr: 0}, {Attr: 1, Desc: true, NullsFirst: true}},
		MemoryBytes: 2048,
		Store:       pagestore.NewMem(256, stats),
		Comparisons: &cmps,
	}
	got, st, err := s.SortTuples(append([]storage.Tuple(nil), rows...))
	if err != nil {
		t.Fatal(err)
	}
	if !storage.SortedOn(got, s.Key) || !multisetEqual(got, rows) {
		t.Fatalf("output is not a sorted permutation of the input")
	}
	want := struct {
		runs, passes        int
		cmps, read, written int64
		digest              uint64
	}{136, 2, 93195, 1193, 1193, 0x420f8ca79d0803a5}
	if st.InitialRuns != want.runs || st.MergePasses != want.passes {
		t.Errorf("runs, passes = %d, %d, want %d, %d", st.InitialRuns, st.MergePasses, want.runs, want.passes)
	}
	if st.Comparisons != want.cmps {
		t.Errorf("comparisons = %d, want %d", st.Comparisons, want.cmps)
	}
	if r, w := stats.BlocksRead(), stats.BlocksWritten(); r != want.read || w != want.written {
		t.Errorf("blocks read, written = %d, %d, want %d, %d", r, w, want.read, want.written)
	}
	if d := outputDigest(got); d != want.digest {
		t.Errorf("output digest = %#x, want %#x", d, want.digest)
	}
}

// formRuns spills rows into initial runs with replacement selection.
func formRuns(t testing.TB, s *Sorter, rows []storage.Tuple) []*run {
	t.Helper()
	rows = append([]storage.Tuple(nil), rows...)
	mem := 0
	n := 0
	for n < len(rows) && mem+rows[n].Size() <= s.MemoryBytes {
		mem += rows[n].Size()
		n++
	}
	runs, err := s.formRunsReplacement(rows[:n], SliceInput(rows[n:]))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

// fileBytes reads a sealed spill file back in full.
func fileBytes(t testing.TB, f *pagestore.File) []byte {
	t.Helper()
	rd, err := f.NewReader()
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	b, err := io.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeMergeToRun is the reference intermediate merge: decode every
// tuple into an arena, merge in the same container/heap order, re-encode.
func decodeMergeToRun(t testing.TB, s *Sorter, runs []*run) *pagestore.File {
	t.Helper()
	h := &mergeHeap{sorter: s}
	for _, r := range runs {
		rd, err := spill.NewReader(r.file)
		if err != nil {
			t.Fatal(err)
		}
		src := &mergeSource{rd: rd}
		if ok, err := src.advance(); err != nil {
			t.Fatal(err)
		} else if ok {
			h.items = append(h.items, src)
		}
	}
	heap.Init(h)
	w, err := spill.NewWriter(s.Store)
	if err != nil {
		t.Fatal(err)
	}
	for h.Len() > 0 {
		if err := w.Write(h.items[0].tuple); err != nil {
			t.Fatal(err)
		}
		if err := advanceHead(h); err != nil {
			t.Fatal(err)
		}
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	releaseRuns(runs)
	return f
}

// TestPassThroughMergeMatchesReencode: an intermediate merge that moves
// encoded records writes the very bytes, in the very blocks, with the
// very comparisons of a merge that decodes and re-encodes every tuple.
func TestPassThroughMergeMatchesReencode(t *testing.T) {
	rows := mixedRows(rand.New(rand.NewSource(3)), 3000)
	key := attrs.Seq{{Attr: 0, NullsFirst: true}, {Attr: 1, Desc: true}}
	newSorter := func() (*Sorter, *int64, *pagestore.Stats) {
		var cmps int64
		stats := &pagestore.Stats{}
		return &Sorter{Key: key, MemoryBytes: 2048, Store: pagestore.NewMem(256, stats), Comparisons: &cmps}, &cmps, stats
	}
	ref, refCmps, refStats := newSorter()
	refRuns := formRuns(t, ref, rows)
	if len(refRuns) < 3 {
		t.Fatalf("formed %d runs, want several", len(refRuns))
	}
	refStart, refIO := *refCmps, refStats.TotalBlocks()
	want := fileBytes(t, decodeMergeToRun(t, ref, refRuns))

	s, cmps, stats := newSorter()
	runs := formRuns(t, s, rows)
	start, io0 := *cmps, stats.TotalBlocks()
	merged, err := s.mergeToRun(runs)
	if err != nil {
		t.Fatal(err)
	}
	got := fileBytes(t, merged.file)
	if !bytes.Equal(got, want) {
		t.Fatalf("pass-through run differs from decode-and-re-encode (%d vs %d bytes)", len(got), len(want))
	}
	if c, rc := *cmps-start, *refCmps-refStart; c != rc {
		t.Errorf("comparisons = %d, decode-and-re-encode made %d", c, rc)
	}
	// Both sides include one full read of the merged file (fileBytes).
	if b, rb := stats.TotalBlocks()-io0, refStats.TotalBlocks()-refIO; b != rb {
		t.Errorf("block I/O = %d, decode-and-re-encode made %d", b, rb)
	}
	var out []storage.Tuple
	for buf := got; len(buf) > 0; {
		tup, n, err := storage.DecodeTuple(buf)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tup)
		buf = buf[n:]
	}
	if !storage.SortedOn(out, key) || !multisetEqual(out, rows) {
		t.Fatalf("merged run is not a sorted permutation of the input")
	}
}

// TestPassThroughMergeAllocs bounds the allocations of one intermediate
// merge pass: they are per leg and per output file, never per tuple, so
// eight times the rows over as many legs must not cost more. The file
// backend is used because the memory backend allocates a page per block.
func TestPassThroughMergeAllocs(t *testing.T) {
	const iters, legs = 3, 8
	allocs := func(nrows int) float64 {
		// A budget of about 1/20 of the input forms about ten runs of 2M,
		// whatever nrows is.
		s := &Sorter{Key: attrs.AscSeq(0, 1), MemoryBytes: nrows * 100 / 20, Store: pagestore.NewFileBacked(t.TempDir(), 4096, nil)}
		rows := mixedRows(rand.New(rand.NewSource(int64(nrows))), nrows)
		var waves [][]*run
		for i := 0; i <= iters; i++ { // AllocsPerRun adds one warm-up call
			runs := formRuns(t, s, rows)
			if len(runs) < legs {
				t.Fatalf("%d rows formed %d runs, want at least %d", nrows, len(runs), legs)
			}
			waves = append(waves, append(runs[:legs-1:legs-1], mergeAll(t, s, runs[legs-1:])))
		}
		n := testing.AllocsPerRun(iters, func() {
			merged, err := s.mergeToRun(waves[0])
			waves = waves[1:]
			if err != nil {
				t.Fatal(err)
			}
			merged.file.Release()
		})
		return n
	}
	small, large := allocs(4000), allocs(32000)
	t.Logf("allocs per pass: %.0f at 4000 rows, %.0f at 32000 rows", small, large)
	if large > small+2 || large > 200 {
		t.Errorf("allocs per pass grew with the rows: %.0f at 4000, %.0f at 32000", small, large)
	}
}

// mergeAll folds runs into one, so a wave has a fixed number of legs.
func mergeAll(t testing.TB, s *Sorter, runs []*run) *run {
	t.Helper()
	r, err := s.mergeToRun(runs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
