package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// sanitize maps quick-generated extreme values into a range where the
// arithmetic under test cannot overflow to Inf.
func sanitize(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestVectorAddSubScale(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	v.Add(w)
	if v[0] != 5 || v[1] != 7 || v[2] != 9 {
		t.Fatalf("Add: got %v", v)
	}
	v.Sub(w)
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("Sub: got %v", v)
	}
	v.Scale(2)
	if v[0] != 2 || v[1] != 4 || v[2] != 6 {
		t.Fatalf("Scale: got %v", v)
	}
	v.AddScaled(0.5, w)
	if v[0] != 4 || v[1] != 6.5 || v[2] != 9 {
		t.Fatalf("AddScaled: got %v", v)
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.Add(Vector{1, 2})
}

func TestDotNormCosine(t *testing.T) {
	v := Vector{3, 4}
	if got := Dot(v, v); got != 25 {
		t.Fatalf("Dot = %v, want 25", got)
	}
	if got := Norm(v); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := Cosine(v, Vector{6, 8}); !almostEqual(got, 1) {
		t.Fatalf("Cosine parallel = %v, want 1", got)
	}
	if got := Cosine(Vector{1, 0}, Vector{0, 1}); !almostEqual(got, 0) {
		t.Fatalf("Cosine orthogonal = %v, want 0", got)
	}
	if got := Cosine(Vector{1, 0}, Vector{-1, 0}); !almostEqual(got, -1) {
		t.Fatalf("Cosine antiparallel = %v, want -1", got)
	}
	if got := Cosine(Vector{0, 0}, Vector{1, 1}); got != 0 {
		t.Fatalf("Cosine with zero vector = %v, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	Normalize(v)
	if !almostEqual(Norm(v), 1) {
		t.Fatalf("norm after Normalize = %v", Norm(v))
	}
	z := Vector{0, 0}
	Normalize(z)
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("Normalize of zero vector changed it: %v", z)
	}
}

func TestSqDist(t *testing.T) {
	if got := SqDist(Vector{0, 0}, Vector{3, 4}); got != 25 {
		t.Fatalf("SqDist = %v, want 25", got)
	}
}

func TestConcatMeanArgMax(t *testing.T) {
	c := Concat(Vector{1, 2}, Vector{3})
	if len(c) != 3 || c[2] != 3 {
		t.Fatalf("Concat: got %v", c)
	}
	m := Mean([]Vector{{1, 3}, {3, 5}})
	if m[0] != 2 || m[1] != 4 {
		t.Fatalf("Mean: got %v", m)
	}
	if Mean(nil) != nil {
		t.Fatal("Mean(nil) should be nil")
	}
	if got := ArgMax(Vector{1, 5, 3}); got != 1 {
		t.Fatalf("ArgMax = %d, want 1", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Fatalf("ArgMax(nil) = %d, want -1", got)
	}
}

func TestSoftmax(t *testing.T) {
	v := Vector{1, 2, 3}
	out := Softmax(NewVector(3), v)
	var sum float64
	for _, x := range out {
		sum += x
	}
	if !almostEqual(sum, 1) {
		t.Fatalf("softmax sums to %v", sum)
	}
	if !(out[2] > out[1] && out[1] > out[0]) {
		t.Fatalf("softmax not monotone: %v", out)
	}
	// Stability with large values.
	big := Softmax(NewVector(2), Vector{1000, 1000})
	if !almostEqual(big[0], 0.5) {
		t.Fatalf("softmax overflow: %v", big)
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := m.MulVec(NewVector(2), Vector{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MulVec: got %v", dst)
	}
	dt := m.MulVecT(NewVector(3), Vector{1, 1})
	if dt[0] != 5 || dt[1] != 7 || dt[2] != 9 {
		t.Fatalf("MulVecT: got %v", dt)
	}
}

func TestMatrixAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(2, Vector{1, 2}, Vector{3, 4})
	want := []float64{6, 8, 12, 16}
	for i, x := range want {
		if m.Data[i] != x {
			t.Fatalf("AddOuter: got %v, want %v", m.Data, want)
		}
	}
}

func TestMatrixRowSharesBacking(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(1)[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row should alias matrix storage")
	}
}

func TestMatrixShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	NewMatrix(1, 2).Add(NewMatrix(2, 1))
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give same stream")
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must still produce a non-degenerate stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, x := range p {
		if x < 0 || x >= 50 || seen[x] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[x] = true
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sq += x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v", variance)
	}
}

// Property: cosine similarity is symmetric and bounded.
func TestCosineProperties(t *testing.T) {
	f := func(a, b [8]float64) bool {
		v, w := Vector(a[:]).Clone(), Vector(b[:]).Clone()
		for i := range v {
			v[i] = sanitize(v[i])
			w[i] = sanitize(w[i])
		}
		c1, c2 := Cosine(v, w), Cosine(w, v)
		if math.IsNaN(c1) || math.IsNaN(c2) {
			return false
		}
		return almostEqual(c1, c2) && c1 <= 1+1e-9 && c1 >= -1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: normalising any non-zero vector yields unit norm.
func TestNormalizeProperty(t *testing.T) {
	f := func(a [6]float64) bool {
		v := Vector(a[:]).Clone()
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				v[i] = 0
			}
		}
		Normalize(v)
		n := Norm(v)
		return n == 0 || math.Abs(n-1) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution.
func TestSoftmaxProperty(t *testing.T) {
	f := func(a [5]float64) bool {
		v := Vector(a[:]).Clone()
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				v[i] = 0
			}
		}
		out := Softmax(NewVector(len(v)), v)
		var sum float64
		for _, x := range out {
			if x < 0 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixSmallOps(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	if m.At(0, 1) != 5 {
		t.Fatal("Set/At wrong")
	}
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 5 {
		t.Fatal("Clone should not share storage")
	}
	m.Scale(2)
	if m.At(0, 1) != 10 {
		t.Fatal("Scale wrong")
	}
	o := NewMatrix(2, 2)
	o.Set(1, 0, 3)
	m.AddScaled(2, o)
	if m.At(1, 0) != 6 {
		t.Fatal("AddScaled wrong")
	}
	m.Zero()
	if m.At(0, 1) != 0 || m.At(1, 0) != 0 {
		t.Fatal("Zero wrong")
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestRNGFillAndShuffle(t *testing.T) {
	r := NewRNG(21)
	v := NewVector(64)
	r.FillUniform(v, 0.5)
	for _, x := range v {
		if x < -0.5 || x >= 0.5 {
			t.Fatalf("uniform out of range: %v", x)
		}
	}
	r.FillNormal(v, 2)
	nonzero := 0
	for _, x := range v {
		if x != 0 {
			nonzero++
		}
	}
	if nonzero < 60 {
		t.Fatal("normal fill left zeros")
	}
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 8 {
		t.Fatal("shuffle lost elements")
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}
