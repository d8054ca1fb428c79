package storage

// Streaming FNV-1a over the AppendTuple byte sequence, without building
// the buffer. The partitioning hash of the parallel and sharded executors
// is defined as FNV-1a over the concatenated single-value tuple encodings
// of the key attributes; HashValueFNV folds one value into the running
// hash byte-identically to hashing AppendTuple(dst, Tuple{v}), so rows
// partition exactly as they did when the hash materialized the encoding —
// a mixed-version cluster must never disagree on row placement.

// HashSeedFNV is the FNV-64a offset basis: the initial running hash.
const HashSeedFNV uint64 = 14695981039346656037

const fnvPrime64 uint64 = 1099511628211

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUvarint(h uint64, v uint64) uint64 {
	for v >= 0x80 {
		h = fnvByte(h, byte(v)|0x80)
		v >>= 7
	}
	return fnvByte(h, byte(v))
}

// HashValueFNV advances h by the encoding of the single-value tuple {v}:
// uvarint column count (always 1), the kind byte, then the value payload
// in the spill codec's layout.
func HashValueFNV(h uint64, v Value) uint64 {
	h = fnvByte(h, 1)
	h = fnvByte(h, byte(v.kind))
	switch v.kind {
	case KindInt:
		uv := v.x << 1
		if int64(v.x) < 0 {
			uv = ^uv
		}
		h = fnvUvarint(h, uv)
	case KindFloat:
		for i := 0; i < 8; i++ { // little-endian float bits
			h = fnvByte(h, byte(v.x>>(8*i)))
		}
	case KindString:
		h = fnvUvarint(h, v.x)
		s := v.str()
		for i := 0; i < len(s); i++ {
			h = fnvByte(h, s[i])
		}
	}
	return h
}
