package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// The binary tuple codec used by the spill paths. Layout per tuple:
//
//	uvarint column count
//	per column: 1 byte kind, then payload
//	  KindNull:   nothing
//	  KindInt:    varint
//	  KindFloat:  8 bytes little-endian IEEE 754
//	  KindString: uvarint length + bytes
//
// The codec is self-describing per tuple so that heterogenous spill files
// (e.g. buckets of different window chains) need no schema side-channel.

// ErrCorrupt reports a malformed encoded tuple.
var ErrCorrupt = errors.New("storage: corrupt tuple encoding")

// AppendTuple appends the encoding of t to dst and returns the result.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindInt:
			dst = binary.AppendVarint(dst, int64(v.x))
		case KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, v.x)
		case KindString:
			dst = binary.AppendUvarint(dst, v.x)
			dst = append(dst, v.str()...)
		}
	}
	return dst
}

// EncodedSize returns the exact number of bytes AppendTuple will add for t.
func EncodedSize(t Tuple) int {
	n := uvarintLen(uint64(len(t)))
	for _, v := range t {
		n++ // kind byte
		switch v.kind {
		case KindInt:
			n += varintLen(int64(v.x))
		case KindFloat:
			n += 8
		case KindString:
			n += uvarintLen(v.x) + int(v.x)
		}
	}
	return n
}

// DecodeTuple decodes one tuple from buf, returning the tuple and the number
// of bytes consumed. The tuple and its strings are freshly allocated; the
// spill readers decode through an Arena or as a view instead.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	ncols, pos, err := decodeHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	t := make(Tuple, ncols)
	if pos, err = decodeValues(buf, pos, t, nil, false); err != nil {
		return nil, 0, err
	}
	return t, pos, nil
}

// DecodeView decodes one tuple from buf into dst's backing array, growing
// it only when it is too short, and returns the tuple with the number of
// bytes consumed. Its strings view buf rather than copy it: the tuple is
// valid only until buf or dst is next written, so a caller that keeps it
// must decode through an Arena instead.
func DecodeView(buf []byte, dst Tuple) (Tuple, int, error) {
	ncols, pos, err := decodeHeader(buf)
	if err != nil {
		return nil, 0, err
	}
	if cap(dst) < ncols {
		dst = make(Tuple, ncols)
	}
	t := dst[:ncols]
	if pos, err = decodeValues(buf, pos, t, nil, true); err != nil {
		return nil, 0, err
	}
	return t, pos, nil
}

// decodeHeader reads the column count and returns it with its length.
func decodeHeader(buf []byte) (int, int, error) {
	ncols, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, ErrCorrupt
	}
	if ncols > uint64(len(buf)) { // cheap sanity bound: ≥1 byte per column
		return 0, 0, fmt.Errorf("%w: column count %d", ErrCorrupt, ncols)
	}
	return int(ncols), n, nil
}

// decodeValues fills t from buf starting at pos and returns the position
// after the last value. Strings view buf when view is set, are copied into
// a's byte slab when a is non-nil, and into fresh allocations otherwise.
func decodeValues(buf []byte, pos int, t Tuple, a *Arena, view bool) (int, error) {
	for i := range t {
		if pos >= len(buf) {
			return 0, ErrCorrupt
		}
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindNull:
			t[i] = Null
		case KindInt:
			v, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return 0, ErrCorrupt
			}
			pos += n
			t[i] = Int(v)
		case KindFloat:
			if pos+8 > len(buf) {
				return 0, ErrCorrupt
			}
			t[i] = Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:])))
			pos += 8
		case KindString:
			l, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return 0, ErrCorrupt
			}
			pos += n
			if uint64(pos)+l > uint64(len(buf)) {
				return 0, ErrCorrupt
			}
			b := buf[pos : pos+int(l)]
			switch {
			case view:
				t[i] = StringVal(unsafe.String(unsafe.SliceData(b), len(b)))
			case a != nil:
				t[i] = StringVal(a.string(b))
			default:
				t[i] = StringVal(string(b))
			}
			pos += int(l)
		default:
			return 0, fmt.Errorf("%w: kind %d", ErrCorrupt, kind)
		}
	}
	return pos, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func varintLen(v int64) int {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return uvarintLen(uv)
}
