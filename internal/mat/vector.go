// Package mat provides the small dense linear-algebra kernel used by the
// learned components of semjoin: the LSTM language model, the GloVe-style
// word embedder, and k-means clustering. It is deliberately minimal —
// float64 vectors and row-major matrices with the handful of BLAS-like
// operations those consumers need — and has no dependencies beyond the
// standard library.
package mat

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every element of v to 0.
func (v Vector) Zero() { v.Fill(0) }

// Add accumulates w into v element-wise. It panics if lengths differ.
func (v Vector) Add(w Vector) {
	checkLen(len(v), len(w))
	for i, x := range w {
		v[i] += x
	}
}

// Sub subtracts w from v element-wise. It panics if lengths differ.
func (v Vector) Sub(w Vector) {
	checkLen(len(v), len(w))
	for i, x := range w {
		v[i] -= x
	}
}

// Scale multiplies every element of v by a.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// AddScaled accumulates a*w into v. It panics if lengths differ.
func (v Vector) AddScaled(a float64, w Vector) {
	checkLen(len(v), len(w))
	for i, x := range w {
		v[i] += a * x
	}
}

// MulElem multiplies v by w element-wise. It panics if lengths differ.
func (v Vector) MulElem(w Vector) {
	checkLen(len(v), len(w))
	for i, x := range w {
		v[i] *= x
	}
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func Dot(v, w Vector) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of v.
func Norm(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Normalize scales v to unit L2 norm in place and returns v. A zero vector
// is left unchanged.
func Normalize(v Vector) Vector {
	n := Norm(v)
	if n > 0 {
		v.Scale(1 / n)
	}
	return v
}

// Cosine returns the cosine similarity of v and w in [-1, 1]. If either
// vector has zero norm the similarity is 0.
func Cosine(v, w Vector) float64 {
	checkLen(len(v), len(w))
	var dot, nv, nw float64
	for i, x := range v {
		y := w[i]
		dot += x * y
		nv += x * x
		nw += y * y
	}
	if nv == 0 || nw == 0 {
		return 0
	}
	return dot / math.Sqrt(nv*nw)
}

// SqDist returns the squared Euclidean distance between v and w.
func SqDist(v, w Vector) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i, x := range v {
		d := x - w[i]
		s += d * d
	}
	return s
}

// Concat returns a new vector holding the elements of v followed by w.
func Concat(v, w Vector) Vector {
	out := make(Vector, 0, len(v)+len(w))
	out = append(out, v...)
	return append(out, w...)
}

// Mean returns the element-wise mean of vs. All vectors must share the same
// length; the mean of an empty set has length 0.
func Mean(vs []Vector) Vector {
	if len(vs) == 0 {
		return nil
	}
	out := NewVector(len(vs[0]))
	for _, v := range vs {
		out.Add(v)
	}
	out.Scale(1 / float64(len(vs)))
	return out
}

// ArgMax returns the index of the largest element of v, or -1 if v is empty.
func ArgMax(v Vector) int {
	if len(v) == 0 {
		return -1
	}
	best, arg := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, arg = x, i+1
		}
	}
	return arg
}

// Softmax writes the softmax of v into dst (which may alias v) and returns
// dst. It is numerically stabilised by subtracting the maximum.
func Softmax(dst, v Vector) Vector {
	checkLen(len(dst), len(v))
	if len(v) == 0 {
		return dst
	}
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(x - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// Sigmoid returns 1/(1+e^-x).
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Tanh returns the hyperbolic tangent of x.
func Tanh(x float64) float64 { return math.Tanh(x) }

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("mat: length mismatch %d != %d", a, b)) //lint:allow nopanic shape invariant: linear-algebra misuse, not a data error
	}
}
