package spill

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pagestore"
	"repro/internal/storage"
)

func TestRoundTrip(t *testing.T) {
	store := pagestore.NewMem(256, nil)
	w, err := NewWriter(store)
	if err != nil {
		t.Fatal(err)
	}
	var want []storage.Tuple
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		tu := storage.Tuple{
			storage.Int(rng.Int63()),
			storage.StringVal("payload"),
			storage.Null,
		}
		want = append(want, tu)
		if err := w.Write(tu); err != nil {
			t.Fatal(err)
		}
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for i := 0; ; i++ {
		tu, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(want) {
				t.Fatalf("read %d tuples, want %d", i, len(want))
			}
			break
		}
		for c := range want[i] {
			if !storage.Equal(tu[c], want[i][c]) {
				t.Fatalf("tuple %d col %d mismatch", i, c)
			}
		}
	}
}

// TestLargeTuplesCrossPages — tuples wider than a page force the reader's
// buffer-growth path.
func TestLargeTuplesCrossPages(t *testing.T) {
	store := pagestore.NewMem(64, nil) // tiny pages
	w, _ := NewWriter(store)
	big := make([]byte, 1000)
	for i := range big {
		big[i] = byte(i)
	}
	for i := 0; i < 10; i++ {
		if err := w.Write(storage.Tuple{storage.StringVal(string(big)), storage.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := w.Finish()
	rd, _ := NewReader(f)
	defer rd.Close()
	count := 0
	for {
		tu, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if tu[1].Int64() != int64(count) {
			t.Fatalf("tuple %d out of order", count)
		}
		count++
	}
	if count != 10 {
		t.Fatalf("read %d of 10", count)
	}
}

func TestEmptyFile(t *testing.T) {
	store := pagestore.NewMem(128, nil)
	w, _ := NewWriter(store)
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, _ := NewReader(f)
	defer rd.Close()
	if _, ok, err := rd.Next(); ok || err != nil {
		t.Fatalf("empty file: ok=%v err=%v", ok, err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	err := quick.Check(func(seed int64, n uint8, blockExp uint8) bool {
		store := pagestore.NewMem(64<<(blockExp%5), nil)
		w, err := NewWriter(store)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		count := int(n%200) + 1
		sum := int64(0)
		for i := 0; i < count; i++ {
			v := rng.Int63n(1 << 30)
			sum += v
			if err := w.Write(storage.Tuple{storage.Int(v)}); err != nil {
				return false
			}
		}
		f, err := w.Finish()
		if err != nil {
			return false
		}
		rd, err := NewReader(f)
		if err != nil {
			return false
		}
		defer rd.Close()
		got := int64(0)
		read := 0
		for {
			tu, ok, err := rd.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			got += tu[0].Int64()
			read++
		}
		return read == count && got == sum
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

// writeFile spills tuples into a sealed file of store.
func writeFile(t *testing.T, store *pagestore.Store, tuples []storage.Tuple) *pagestore.File {
	t.Helper()
	w, err := NewWriter(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		if err := w.Write(tu); err != nil {
			t.Fatal(err)
		}
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// readAll drains rd.
func readAll(t *testing.T, rd *Reader) []storage.Tuple {
	t.Helper()
	defer rd.Close()
	var out []storage.Tuple
	for {
		tu, ok, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, tu)
	}
}

// TestArenaReaderSharedArena reads two files through one arena, as a merge
// does: every tuple keeps exactly the arena's reserve, and filling one
// tuple's reserve leaves the others — from either file — untouched.
func TestArenaReaderSharedArena(t *testing.T) {
	const reserve = 2
	store := pagestore.NewMem(64, nil)
	var files [2][]storage.Tuple
	for i := 0; i < 300; i++ {
		files[i%2] = append(files[i%2], storage.Tuple{storage.Int(int64(i)), storage.StringVal("s"), storage.Null})
	}
	arena := storage.NewArena(reserve)
	var got []storage.Tuple
	for _, tuples := range files {
		rd, err := NewArenaReader(writeFile(t, store, tuples), arena)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, readAll(t, rd)...)
	}
	for i, tu := range got {
		if cap(tu)-len(tu) != reserve {
			t.Fatalf("tuple %d: %d spare slots, want %d", i, cap(tu)-len(tu), reserve)
		}
		for r := 0; r < reserve; r++ {
			tu = tu.Extend(storage.Int(-1))
		}
	}
	for i, tu := range got {
		want := files[i/150][i%150]
		if len(tu) != len(want) {
			t.Fatalf("tuple %d: len %d after neighbours extended", i, len(tu))
		}
		for c := range want {
			if !storage.Equal(tu[c], want[c]) {
				t.Fatalf("tuple %d col %d = %v, want %v", i, c, tu[c], want[c])
			}
		}
	}
}

// TestQuickArenaRoundTrip writes random tuples with strings and NULLs,
// large enough that files exceed the read buffer and tuples straddle its
// edge, and requires the arena path to equal DecodeTuple of each
// tuple's own encoding.
func TestQuickArenaRoundTrip(t *testing.T) {
	err := quick.Check(func(seed int64, n uint16, blockExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		store := pagestore.NewMem(64<<(blockExp%8), nil)
		tuples := make([]storage.Tuple, int(n%400)+1)
		for i := range tuples {
			tu := make(storage.Tuple, 1+rng.Intn(5))
			for c := range tu {
				switch rng.Intn(4) {
				case 0:
					tu[c] = storage.Null
				case 1:
					tu[c] = storage.Int(rng.Int63() - rng.Int63())
				case 2:
					tu[c] = storage.Float(rng.Float64())
				default:
					b := make([]byte, rng.Intn(1200))
					rng.Read(b)
					tu[c] = storage.StringVal(string(b))
				}
			}
			tuples[i] = tu
		}
		w, err := NewWriter(store)
		if err != nil {
			return false
		}
		for _, tu := range tuples {
			if w.Write(tu) != nil {
				return false
			}
		}
		f, err := w.Finish()
		if err != nil {
			return false
		}
		rd, err := NewArenaReader(f, storage.NewArena(int(blockExp%3)))
		if err != nil {
			return false
		}
		defer rd.Close()
		for i := 0; ; i++ {
			tu, ok, err := rd.Next()
			if err != nil {
				return false
			}
			if !ok {
				return i == len(tuples)
			}
			want, _, err := storage.DecodeTuple(storage.AppendTuple(nil, tuples[i]))
			if err != nil || len(tu) != len(want) || cap(tu)-len(tu) != int(blockExp%3) {
				return false
			}
			for c := range want {
				if tu[c].Kind() != want[c].Kind() || !storage.Equal(tu[c], want[c]) {
					return false
				}
			}
		}
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}
