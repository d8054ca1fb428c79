package storage

import (
	"strings"
	"testing"
)

// fnvBuf is the reference definition the streaming hash must match:
// FNV-1a over the materialized AppendTuple encoding of the single-value
// tuple — the partitioning hash as the buffer-building implementation
// computed it. Row placement across shards depends on exact equality.
func fnvBuf(vals []Value) uint64 {
	var buf []byte
	for _, v := range vals {
		buf = AppendTuple(buf, Tuple{v})
	}
	h := HashSeedFNV
	for _, c := range buf {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

func TestHashValueFNVMatchesEncodedHash(t *testing.T) {
	cases := [][]Value{
		{Int(0)},
		{Int(1)},
		{Int(-1)},
		{Int(63)},  // single-byte zigzag boundary
		{Int(64)},  // two-byte zigzag
		{Int(-64)}, // single-byte negative boundary
		{Int(1<<62 + 12345)},
		{Int(-1 << 62)},
		{Float(0)},
		{Float(-3.75)},
		{Float(1e308)},
		{StringVal("")},
		{StringVal("a")},
		{StringVal("shard-key")},
		{StringVal(strings.Repeat("x", 200))}, // multi-byte length uvarint
		{Null},
		{Int(7), StringVal("mix"), Float(2.5), Null},
		{Null, Null, Int(-9)},
	}
	for _, vals := range cases {
		h := HashSeedFNV
		for _, v := range vals {
			h = HashValueFNV(h, v)
		}
		if want := fnvBuf(vals); h != want {
			t.Errorf("HashValueFNV(%v) = %#x, want %#x (encoded-buffer hash)", vals, h, want)
		}
	}
}

// TestExtendInPlace pins the arena contract: a tuple with spare capacity
// grows in place (same backing array), one without copies.
func TestExtendInPlace(t *testing.T) {
	arena := make([]Value, 3)
	row := Tuple(arena[0:2:3])
	row[0], row[1] = Int(1), Int(2)
	ext := row.Extend(Int(3))
	if &ext[0] != &row[0] {
		t.Fatalf("Extend with spare capacity reallocated")
	}
	if !Identical(arena[2], Int(3)) {
		t.Fatalf("Extend did not land in the arena slot: %v", arena[2])
	}

	exact := Tuple{Int(1), Int(2)}
	ext2 := exact.Extend(Int(3))
	if len(exact) != 2 || cap(exact) < 2 {
		t.Fatalf("receiver mutated: %v", exact)
	}
	if len(ext2) != 3 || !Identical(ext2[2], Int(3)) {
		t.Fatalf("Extend without capacity = %v", ext2)
	}
}
