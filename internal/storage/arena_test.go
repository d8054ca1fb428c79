package storage

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randomTuple draws a tuple of every kind, NULLs and strings included.
func randomTuple(rng *rand.Rand) Tuple {
	t := make(Tuple, 1+rng.Intn(6))
	for i := range t {
		switch rng.Intn(4) {
		case 0:
			t[i] = Null
		case 1:
			t[i] = Int(rng.Int63() - rng.Int63())
		case 2:
			t[i] = Float(rng.NormFloat64())
		default:
			t[i] = StringVal(strings.Repeat(string(rune('a'+rng.Intn(26))), rng.Intn(40)))
		}
	}
	return t
}

func sameTuple(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestArenaReserve(t *testing.T) {
	for _, reserve := range []int{0, 1, 3} {
		a := NewArena(reserve)
		buf := AppendTuple(nil, Tuple{Int(1), StringVal("x"), Null})
		for i := 0; i < 2*arenaMinValues; i++ { // crosses a slab boundary
			tu, n, err := a.Decode(buf)
			if err != nil || n != len(buf) {
				t.Fatalf("reserve %d: decode = %d, %v", reserve, n, err)
			}
			if len(tu) != 3 || cap(tu)-len(tu) != reserve {
				t.Fatalf("reserve %d: len %d cap %d", reserve, len(tu), cap(tu))
			}
		}
	}
}

func TestArenaExtendLeavesNeighbour(t *testing.T) {
	const reserve = 2
	a := NewArena(reserve)
	var buf []byte
	buf = AppendTuple(buf, Tuple{Int(1), StringVal("left")})
	buf = AppendTuple(buf, Tuple{Int(2), StringVal("right")})
	left, n, err := a.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	right, _, err := a.Decode(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	want := right.Clone()
	grown := left
	for i := 0; i < reserve+2; i++ { // through the reserve and past it
		grown = grown.Extend(Int(int64(100 + i)))
		if !sameTuple(right, want) {
			t.Fatalf("extending left %d times changed right: %v", i+1, right)
		}
	}
	if &grown[0] == &left[0] {
		t.Fatal("extension past the reserve did not move the tuple")
	}
	if !sameTuple(grown[:2], Tuple{Int(1), StringVal("left")}) {
		t.Fatalf("grown tuple lost its prefix: %v", grown)
	}
}

func TestArenaPartialDecodeCommitsNothing(t *testing.T) {
	a := NewArena(1)
	first := AppendTuple(nil, Tuple{StringVal("head"), Int(7)})
	if _, _, err := a.Decode(first); err != nil {
		t.Fatal(err)
	}
	vals, bytes := len(a.vals), len(a.bytes)
	enc := AppendTuple(nil, Tuple{StringVal("alpha"), Int(-3), Null, StringVal("omega"), Float(1.5)})
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := a.Decode(enc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(enc))
		}
		if len(a.vals) != vals || len(a.bytes) != bytes || a.pending != 0 {
			t.Fatalf("cut %d: arena advanced to %d values, %d bytes (pending %d); want %d, %d",
				cut, len(a.vals), len(a.bytes), a.pending, vals, bytes)
		}
	}
	tu, n, err := a.Decode(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("full decode = %d, %v", n, err)
	}
	if &a.vals[vals] != &tu[0] {
		t.Fatal("full decode did not land where the partial ones started")
	}
	if !sameTuple(tu, Tuple{StringVal("alpha"), Int(-3), Null, StringVal("omega"), Float(1.5)}) {
		t.Fatalf("decoded %v", tu)
	}
}

// TestArenaMatchesDecodeTuple decodes random back-to-back tuples through
// an arena and through DecodeTuple; both must agree, and the arena's
// strings must not alias the source buffer.
func TestArenaMatchesDecodeTuple(t *testing.T) {
	err := quick.Check(func(seed int64, n uint8, reserve uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var buf []byte
		for i := 0; i < int(n)+1; i++ {
			buf = AppendTuple(buf, randomTuple(rng))
		}
		a := NewArena(int(reserve % 4))
		var got, want []Tuple
		for pos := 0; pos < len(buf); {
			g, gn, gerr := a.Decode(buf[pos:])
			w, wn, werr := DecodeTuple(buf[pos:])
			if gerr != nil || werr != nil || gn != wn {
				return false
			}
			got, want = append(got, g), append(want, w)
			pos += gn
		}
		clear(buf)
		for i := range got {
			if !sameTuple(got[i], want[i]) || cap(got[i])-len(got[i]) != int(reserve%4) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}
