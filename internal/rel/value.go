// Package rel implements the relational substrate the paper deploys its
// semantic joins on: schemas, typed tuples, relations and the physical
// operators (selection, projection, hash/natural/nested-loop joins,
// aggregation, sorting) that the gSQL executor plans over. The
// paper runs atop PostgreSQL; this embedded engine plays the same role —
// §IV reduces every well-behaved semantic join to plain relational joins,
// which this package executes.
package rel

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates value types.
type Kind uint8

const (
	// KindNull is the SQL null. Extraction assigns it when no path pattern
	// matches (§III Algorithm 1).
	KindNull Kind = iota
	// KindString is a UTF-8 string.
	KindString
	// KindInt is a 64-bit integer.
	KindInt
	// KindFloat is a 64-bit float.
	KindFloat
	// KindBool is a boolean.
	KindBool
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is a tagged union holding one attribute value.
type Value struct {
	kind Kind
	s    string
	n    int64
	f    float64
	b    bool
}

// Null is the null value.
var Null = Value{kind: KindNull}

// S returns a string value.
func S(s string) Value { return Value{kind: KindString, s: s} }

// I returns an integer value.
func I(n int64) Value { return Value{kind: KindInt, n: n} }

// F returns a float value.
func F(f float64) Value { return Value{kind: KindFloat, f: f} }

// B returns a boolean value.
func B(b bool) Value { return Value{kind: KindBool, b: b} }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload ("" if not a string).
func (v Value) Str() string { return v.s }

// Int returns the integer payload (coercing float and bool).
func (v Value) Int() int64 {
	switch v.kind {
	case KindInt:
		return v.n
	case KindFloat:
		return int64(v.f)
	case KindBool:
		if v.b {
			return 1
		}
	}
	return 0
}

// Float returns the numeric payload as float64 (coercing int).
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.n)
	}
	return 0
}

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.kind == KindBool && v.b }

// String renders v for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	}
	return "?"
}

// Key returns a canonical string usable as a hash/equality key. Numeric
// values of equal magnitude hash equally regardless of int/float kind.
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00N"
	case KindString:
		return "\x00S" + v.s
	case KindInt:
		return "\x00F" + strconv.FormatFloat(float64(v.n), 'g', -1, 64)
	case KindFloat:
		return "\x00F" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return "\x00B" + strconv.FormatBool(v.b)
	}
	return "\x00?"
}

// HashKey returns v normalised for direct use as a Go map key, and
// false for nulls (which never join). Numeric values of equal
// magnitude collapse to one representation (ints become floats,
// matching Key's float formatting), and NaN gets a canonical non-float
// encoding — a raw NaN key would never equal itself under ==, making
// the map entry unretrievable. Hash joins key their tables on this
// instead of the Key string, skipping the per-row float formatting.
func (v Value) HashKey() (Value, bool) {
	switch v.kind {
	case KindNull:
		return Value{}, false
	case KindString:
		return Value{kind: KindString, s: v.s}, true
	case KindInt:
		return Value{kind: KindFloat, f: float64(v.n)}, true
	case KindFloat:
		if v.f != v.f {
			return Value{kind: KindFloat, s: "\x00NaN"}, true
		}
		if v.f == 0 && math.Signbit(v.f) {
			// -0.0 gets its own canonical encoding: the Key string kept
			// it distinct from +0.0 ("-0" vs "0"), and under == the two
			// would otherwise collapse, changing join results.
			return Value{kind: KindFloat, s: "\x00-0"}, true
		}
		return Value{kind: KindFloat, f: v.f}, true
	case KindBool:
		return Value{kind: KindBool, b: v.b}, true
	}
	return Value{}, false
}

// Equal reports SQL equality: null equals nothing (not even null);
// numerics compare by magnitude across int/float.
func (v Value) Equal(w Value) bool {
	if v.kind == KindNull || w.kind == KindNull {
		return false
	}
	if isNumeric(v.kind) && isNumeric(w.kind) {
		return v.Float() == w.Float()
	}
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.s == w.s
	case KindBool:
		return v.b == w.b
	}
	return false
}

// Compare orders two values: -1, 0 or +1. Nulls sort first; mixed
// incomparable kinds order by kind. Numerics compare by magnitude.
func (v Value) Compare(w Value) int {
	if v.kind == KindNull || w.kind == KindNull {
		switch {
		case v.kind == w.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if isNumeric(v.kind) && isNumeric(w.kind) {
		a, b := v.Float(), w.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, w.s)
	case KindBool:
		switch {
		case v.b == w.b:
			return 0
		case !v.b:
			return -1
		}
		return 1
	}
	return 0
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

// Parse converts a literal string into the most specific Value: int, then
// float, then bool, then string. Empty strings become nulls.
func Parse(s string) Value {
	if s == "" {
		return Null
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return I(n)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return F(f)
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return B(b)
	}
	return S(s)
}
