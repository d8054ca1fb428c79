// Package storage provides the tuple-level substrate: typed values, tuples,
// schemas, comparators and a compact binary serialization used by the
// spill-to-disk paths of the sort and hash operators.
package storage

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the supported value types.
type Kind uint8

const (
	// KindNull is the SQL NULL marker; it carries no payload.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an immutable byte string.
	KindString
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single column value. The zero Value is SQL NULL.
//
// A Value is 24 bytes: x holds the int64 bits, the float64 bits or the
// string length, and p is the string's data pointer — nil for every other
// kind, so the collector has nothing to follow in a numeric value. Values
// are not comparable with == (the leading zero-size func field makes that
// a compile error): two equal strings may sit at different addresses, so
// compare with Identical, Equal or Compare.
type Value struct {
	_    [0]func()
	p    *byte
	x    uint64
	kind Kind
}

// Null is the SQL NULL value.
var Null = Value{}

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: KindInt, x: uint64(v)} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: KindFloat, x: math.Float64bits(v)} }

// StringVal wraps a string. The value shares the string's bytes.
func StringVal(v string) Value {
	return Value{kind: KindString, p: unsafe.StringData(v), x: uint64(len(v))}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int64 returns the integer payload; it panics on non-integers.
func (v Value) Int64() int64 {
	if v.kind != KindInt {
		panic("storage: Int64 on " + v.kind.String())
	}
	return int64(v.x)
}

// Float64 returns the float payload, widening integers.
func (v Value) Float64() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.x)
	case KindInt:
		return float64(int64(v.x))
	}
	panic("storage: Float64 on " + v.kind.String())
}

// Str returns the string payload; it panics on non-strings.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("storage: Str on " + v.kind.String())
	}
	return v.str()
}

// str is the string payload of a KindString value.
func (v Value) str() string { return unsafe.String(v.p, int(v.x)) }

// String renders the value for display. NULL renders as "-" matching the
// paper's sample output in Example 1.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "-"
	case KindInt:
		return strconv.FormatInt(int64(v.x), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.x), 'g', -1, 64)
	case KindString:
		return v.str()
	default:
		return "?"
	}
}

// numericRank orders kinds for cross-kind comparison: NULL handled by the
// caller, numerics compare by value, strings after numerics.
func numericKind(k Kind) bool { return k == KindInt || k == KindFloat }

// Compare orders two non-NULL values: -1 if v < w, 0 if equal, +1 if v > w.
// Integers and floats compare numerically with each other. Comparing a
// numeric against a string orders the numeric first (a total order is
// required by the sort operators; mixed-kind columns do not occur in
// well-typed relations but the order must still be total).
//
// NULL handling (nulls first/last, per ordering element) is the
// responsibility of CompareAt and the comparators built on it.
func Compare(v, w Value) int {
	if v.kind == KindNull || w.kind == KindNull {
		// NULLs compare equal to each other and precede non-NULLs in this
		// raw ordering; ordering elements override placement.
		switch {
		case v.kind == KindNull && w.kind == KindNull:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericKind(v.kind) && numericKind(w.kind) {
		if v.kind == KindInt && w.kind == KindInt {
			a, b := int64(v.x), int64(w.x)
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			default:
				return 0
			}
		}
		a, b := v.Float64(), w.Float64()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if numericKind(v.kind) != numericKind(w.kind) {
		if numericKind(v.kind) {
			return -1
		}
		return 1
	}
	// Both strings.
	return strings.Compare(v.str(), w.str())
}

// Equal reports deep value equality (NULL equals NULL). Int(1) equals
// Float(1): Equal is Compare's equality.
func Equal(v, w Value) bool { return Compare(v, w) == 0 }

// Identical reports whether v and w have the same kind and compare equal:
// the kind-strict equality, where Equal lets Int(1) equal Float(1).
// Strings compare by content, not address. Compare ranks NaN equal to
// every float, so Identical also requires both or neither to be NaN: NaN
// is identical to NaN and to nothing else.
func Identical(v, w Value) bool {
	if v.kind != w.kind || Compare(v, w) != 0 {
		return false
	}
	return v.kind != KindFloat || math.IsNaN(v.Float64()) == math.IsNaN(w.Float64())
}

// Size returns the approximate in-memory footprint of the value in bytes,
// used by memory-budgeted operators. It is a notional figure, not
// unsafe.Sizeof: it sizes the paper's memory budget M, so it fixes the
// runs, blocks and comparisons of every spilling sort, and it stays the
// same whatever the struct layout.
func (v Value) Size() int {
	const header = 8 // kind + padding amortized
	switch v.kind {
	case KindString:
		return header + 16 + int(v.x)
	default:
		return header + 8
	}
}
