package storage

import "unsafe"

// Slab bounds of an Arena. Slabs double from the minimum up to the
// maximum, so a small spill allocates little and a large one allocates a
// few slabs rather than one object per tuple; a tuple or string larger
// than the maximum gets a slab of its own size.
const (
	arenaMinValues = 256
	arenaMaxValues = 32 << 10
	arenaMinBytes  = 4 << 10
	arenaMaxBytes  = 256 << 10
)

// Arena is the decode target of spilled tuples. It carves tuples out of
// shared value slabs and string payloads out of shared byte slabs, so
// reading a spill file costs a few slab allocations instead of one tuple
// and one string per row.
//
// Each decoded tuple is a three-index slice whose capacity is its length
// plus the arena's reserve: Tuple.Extend can then add up to reserve
// values in place without reaching the next tuple's slots. Committed
// slab regions are never written again — a full slab is replaced, not
// reused — so decoded tuples and strings stay valid for as long as they
// are referenced, and a slab is freed by the garbage collector once no
// tuple points into it.
//
// An Arena is not safe for concurrent use.
type Arena struct {
	reserve int
	vals    []Value // current value slab; len is the committed prefix
	bytes   []byte  // current byte slab; len is the committed prefix
	pending int     // bytes written past len(bytes) by the decode in progress
}

// NewArena returns an arena whose tuples carry reserve spare slots.
func NewArena(reserve int) *Arena {
	if reserve < 0 {
		reserve = 0
	}
	return &Arena{reserve: reserve}
}

// Decode decodes one tuple from buf into the arena and returns it with the
// number of bytes consumed. It accepts exactly what DecodeTuple accepts. A
// failed decode — including a tuple cut off at the end of buf — commits
// nothing, so the caller can retry with more bytes.
func (a *Arena) Decode(buf []byte) (Tuple, int, error) {
	ncols, pos, err := decodeHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	need := ncols + a.reserve
	if a.vals == nil || cap(a.vals)-len(a.vals) < need {
		a.vals = make([]Value, 0, slabCap(cap(a.vals), need, arenaMinValues, arenaMaxValues))
	}
	base := len(a.vals)
	t := Tuple(a.vals[base : base+ncols : base+need])
	if pos, err = decodeValues(buf, pos, t, a, false); err != nil {
		a.pending = 0
		return nil, 0, err
	}
	a.vals = a.vals[:base+need]
	a.bytes = a.bytes[:len(a.bytes)+a.pending]
	a.pending = 0
	return t, pos, nil
}

// string copies b into the byte slab past the committed prefix and returns
// it as a string over the slab. The bytes are committed with the tuple.
func (a *Arena) string(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	at := len(a.bytes) + a.pending
	if cap(a.bytes)-at < len(b) {
		// Strings already copied for this tuple stay in the old slab,
		// which is abandoned and so never written again.
		a.bytes = make([]byte, 0, slabCap(cap(a.bytes), len(b), arenaMinBytes, arenaMaxBytes))
		a.pending, at = 0, 0
	}
	dst := a.bytes[at : at+len(b)]
	copy(dst, b)
	a.pending += len(b)
	return unsafe.String(&dst[0], len(dst))
}

// slabCap doubles prev within [lo, hi], but never below need.
func slabCap(prev, need, lo, hi int) int {
	c := min(max(2*prev, lo), hi)
	return max(c, need)
}
