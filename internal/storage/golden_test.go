package storage

import (
	"bytes"
	"encoding/hex"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// The spill codec and the partitioning hash are wire formats: spill files,
// shard placement and the node wire depend on their exact bytes. The
// golden values below were recorded from the original 40-byte Value layout
// and must never change with the in-memory representation.

// longString is longer than 127 bytes, so its length takes a two-byte
// uvarint.
var longString = strings.Repeat("x", 130)

func goldenValues() []Value {
	return []Value{
		Null,
		Int(math.MinInt64),
		Int(math.MaxInt64),
		Float(math.Copysign(0, -1)),
		Float(math.NaN()),
		Float(math.Inf(1)),
		Float(math.Inf(-1)),
		StringVal(""),
		StringVal(longString),
	}
}

func TestCodecGolden(t *testing.T) {
	want := "09" + // column count
		"00" + // NULL
		"01ffffffffffffffffff01" + // MinInt64
		"01feffffffffffffffff01" + // MaxInt64
		"020000000000000080" + // -0.0
		"02010000000000f87f" + // NaN (math.NaN bits 0x7ff8000000000001)
		"02000000000000f07f" + // +Inf
		"02000000000000f0ff" + // -Inf
		"0300" + // ""
		"038201" + strings.Repeat("78", 130) // 130 × 'x'
	got := hex.EncodeToString(AppendTuple(nil, Tuple(goldenValues())))
	if got != want {
		t.Fatalf("AppendTuple bytes drifted:\n got %s\nwant %s", got, want)
	}
}

func TestHashGolden(t *testing.T) {
	want := []uint64{
		0x082f2207b4e88cc4, // NULL
		0xeb7f7071aa4bc863, // MinInt64
		0x5df27e3a9b990746, // MaxInt64
		0x78021183c6dbdfea, // -0.0
		0x9675458cd15849aa, // NaN
		0x79123483c7c34e93, // +Inf
		0x7911b483c7c27513, // -Inf
		0xd0adc918672fda87, // ""
		0xe128997d9d031824, // 130 × 'x'
	}
	vals := goldenValues()
	h := HashSeedFNV
	for i, v := range vals {
		if got := HashValueFNV(HashSeedFNV, v); got != want[i] {
			t.Errorf("HashValueFNV(%v) = %#x, want %#x", v, got, want[i])
		}
		h = HashValueFNV(h, v)
	}
	if h != 0xc1117caa4803d04e {
		t.Errorf("HashValueFNV fold over every golden value = %#x", h)
	}
}

func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

// TestValueSizeUnchanged pins the notional Size of every kind: it sizes
// the memory budget M, so it must not follow the struct layout.
func TestValueSizeUnchanged(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want int
	}{
		{Null, 16},
		{Int(-1), 16},
		{Float(2.5), 16},
		{StringVal(""), 24},
		{StringVal(longString), 24 + 130},
	} {
		if got := tc.v.Size(); got != tc.want {
			t.Errorf("%v.Size() = %d, want %d", tc.v, got, tc.want)
		}
	}
	if got := (Tuple{Int(1), StringVal("ab")}).Size(); got != 24+16+26 {
		t.Errorf("Tuple.Size = %d, want %d", got, 24+16+26)
	}
}

// TestEqualStringsDistinctBacking: two equal strings over different byte
// arrays are Identical, hash the same and encode the same.
func TestEqualStringsDistinctBacking(t *testing.T) {
	a := StringVal(strings.Repeat("ab", 70))
	b := StringVal(string([]byte(strings.Repeat("ab", 70))))
	if a.p == b.p {
		t.Fatal("test strings share a backing array")
	}
	if !Identical(a, b) || !Equal(a, b) || Compare(a, b) != 0 {
		t.Errorf("equal strings at distinct addresses are not Identical")
	}
	if HashValueFNV(HashSeedFNV, a) != HashValueFNV(HashSeedFNV, b) {
		t.Errorf("equal strings hash differently")
	}
	if !bytes.Equal(AppendTuple(nil, Tuple{a}), AppendTuple(nil, Tuple{b})) {
		t.Errorf("equal strings encode differently")
	}
}

func TestIdentical(t *testing.T) {
	nan := Float(math.NaN())
	for _, tc := range []struct {
		a, b Value
		want bool
	}{
		{Null, Null, true},
		{Int(1), Int(1), true},
		{Int(1), Float(1), false}, // Equal, but not the same kind
		{Int(1), Int(2), false},
		{Float(0), Float(math.Copysign(0, -1)), true},
		{nan, nan, true},
		{nan, Float(1), false},
		{Float(1), nan, false},
		{StringVal(""), Null, false},
		{StringVal("a"), StringVal("b"), false},
	} {
		if got := Identical(tc.a, tc.b); got != tc.want {
			t.Errorf("Identical(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}
