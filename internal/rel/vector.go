// Columnar value storage. A Vector is one column of a Batch: a
// per-row kind tag (KindNull entries double as the null bitmap) plus
// lazily-allocated typed payload arrays. Columns are usually
// kind-homogeneous, so in the common case a vector carries exactly one
// payload array and batch kernels loop over it without per-row
// interface calls; heterogeneous columns (Parse can mix ints and
// strings in one attribute) stay exact because the tag array, not the
// schema, decides each row's representation.
package rel

// Vector is a typed column of values. The zero value is an empty
// vector ready for appends.
type Vector struct {
	kinds []Kind
	// Payload arrays are allocated on first use and extended to cover
	// row i when row i is written with that kind, so for every row j
	// with kinds[j] == KindString, strs has length > j (and likewise
	// for the other kinds). Rows of other kinds hold zero values.
	strs   []string
	ints   []int64
	floats []float64
	bools  []bool
}

// Len returns the number of rows in the vector.
func (v *Vector) Len() int { return len(v.kinds) }

// IsNull reports whether row i is null.
func (v *Vector) IsNull(i int) bool { return v.kinds[i] == KindNull }

// Ints exposes the int payload array (may be shorter than Len; index
// it only at rows whose kind is KindInt). Read-only.
func (v *Vector) Ints() []int64 { return v.ints }

// ValueAt returns row i as a Value. This allocates nothing (Value is a
// plain struct), so per-row access from kernels stays cheap.
func (v *Vector) ValueAt(i int) Value {
	switch v.kinds[i] {
	case KindString:
		return Value{kind: KindString, s: v.strs[i]}
	case KindInt:
		return Value{kind: KindInt, n: v.ints[i]}
	case KindFloat:
		return Value{kind: KindFloat, f: v.floats[i]}
	case KindBool:
		return Value{kind: KindBool, b: v.bools[i]}
	}
	return Null
}

// padTo extends s with zero values so that it has length n.
func padTo[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	if cap(s) >= n {
		t := s[:n]
		var zero T
		for i := len(s); i < n; i++ {
			t[i] = zero
		}
		return t
	}
	t := make([]T, n, max(n, 2*cap(s)))
	copy(t, s)
	return t
}

// Append appends val as the vector's next row.
func (v *Vector) Append(val Value) {
	i := len(v.kinds)
	v.kinds = append(v.kinds, val.kind)
	switch val.kind {
	case KindString:
		v.strs = padTo(v.strs, i+1)
		v.strs[i] = val.s
	case KindInt:
		v.ints = padTo(v.ints, i+1)
		v.ints[i] = val.n
	case KindFloat:
		v.floats = padTo(v.floats, i+1)
		v.floats[i] = val.f
	case KindBool:
		v.bools = padTo(v.bools, i+1)
		v.bools[i] = val.b
	}
}

// gatherPayload appends src[r] for every r in rows at dst[base:],
// padding dst first. Rows past src's end are of another kind there and
// keep the zero value.
func gatherPayload[T any](dst, src []T, base int, rows []int32) []T {
	if len(src) == 0 {
		return dst
	}
	dst = padTo(dst, base+len(rows))
	for i, r := range rows {
		if int(r) < len(src) {
			dst[base+i] = src[r]
		}
	}
	return dst
}

// AppendRows appends the rows of src listed in rows, one payload array
// at a time instead of one kind switch per value.
func (v *Vector) AppendRows(src *Vector, rows []int32) {
	base := len(v.kinds)
	for _, r := range rows {
		v.kinds = append(v.kinds, src.kinds[r])
	}
	v.strs = gatherPayload(v.strs, src.strs, base, rows)
	v.ints = gatherPayload(v.ints, src.ints, base, rows)
	v.floats = gatherPayload(v.floats, src.floats, base, rows)
	v.bools = gatherPayload(v.bools, src.bools, base, rows)
}

// clampSlice is s[lo:hi] tolerant of payload arrays shorter than hi
// (rows past their end are of other kinds, so they are never read).
func clampSlice[T any](s []T, lo, hi int) []T {
	if lo >= len(s) {
		return nil
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi:hi]
}

// Slice returns the zero-copy sub-vector of rows [lo, hi). The result
// shares backing arrays with v and must be treated as read-only.
func (v *Vector) Slice(lo, hi int) Vector {
	return Vector{
		kinds:  v.kinds[lo:hi:hi],
		strs:   clampSlice(v.strs, lo, hi),
		ints:   clampSlice(v.ints, lo, hi),
		floats: clampSlice(v.floats, lo, hi),
		bools:  clampSlice(v.bools, lo, hi),
	}
}
