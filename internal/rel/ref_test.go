package rel

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
)

// Naive tuple-at-a-time references the kernel tests compare against.
// They share nothing with the kernels: nested loops, Key-string
// equality, sort.SliceStable over tuples.

func mustMaterialize(t *testing.T, it Iterator) *Relation {
	t.Helper()
	r, err := Materialize(context.Background(), it)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sameRelation checks schema, row count and every value, in order.
func sameRelation(t *testing.T, got, want *Relation) {
	t.Helper()
	if gs, ws := got.Schema.String(), want.Schema.String(); gs != ws {
		t.Fatalf("schema = %s, want %s", gs, ws)
	}
	sameRows(t, got.Tuples, want.Tuples)
}

func sameRows(t *testing.T, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d arity = %d, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			g, w := got[i][c], want[i][c]
			if g.Kind() != w.Kind() || g.Key() != w.Key() {
				t.Fatalf("row %d col %d = %v (%v), want %v (%v)", i, c, g, g.Kind(), w, w.Kind())
			}
		}
	}
}

// joinEq is the join-key equality class: non-null and equal Key
// strings, so NaN joins NaN, -0 stays apart from +0, and ints join
// floats of equal magnitude.
func joinEq(a, b Value) bool {
	return !a.IsNull() && !b.IsNull() && a.Key() == b.Key()
}

func concat(ts ...Tuple) Tuple {
	var out Tuple
	for _, t := range ts {
		out = append(out, t...)
	}
	return out
}

// refProduct is the left-major Cartesian product filtered by keep.
func refProduct(rels []*Relation, keep func(Tuple) bool) []Tuple {
	out := []Tuple{{}}
	for _, r := range rels {
		var next []Tuple
		for _, prefix := range out {
			for _, t := range r.Tuples {
				next = append(next, concat(prefix, t))
			}
		}
		out = next
	}
	var kept []Tuple
	for _, t := range out {
		if keep == nil || keep(t) {
			kept = append(kept, t)
		}
	}
	return kept
}

func refFilter(r *Relation, p Pred) *Relation {
	out := NewRelation(r.Schema)
	for _, t := range r.Tuples {
		if p(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

func refDistinct(ts []Tuple) []Tuple {
	var out []Tuple
	for _, t := range ts {
		dup := false
		for _, u := range out {
			same := true
			for c := range t {
				if t[c].Key() != u[c].Key() {
					same = false
				}
			}
			dup = dup || same
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}

func refSort(ts []Tuple, cols []int, desc []bool) []Tuple {
	out := append([]Tuple(nil), ts...)
	sort.SliceStable(out, func(i, j int) bool {
		for k, c := range cols {
			if cmp := out[i][c].Compare(out[j][c]); cmp != 0 {
				return (cmp < 0) != desc[k]
			}
		}
		return false
	})
	return out
}

// edgeKey cycles through the key classes joins must keep apart or
// together: small ints, floats of the same magnitude, null, NaN, -0,
// +0 and a string.
func edgeKey(i int) Value {
	switch i % 9 {
	case 0, 1, 2:
		return I(int64(i % 4))
	case 3:
		return F(float64(i % 4))
	case 4:
		return Null
	case 5:
		return F(math.NaN())
	case 6:
		return F(math.Copysign(0, -1))
	case 7:
		return F(0)
	}
	return S("x")
}

// keyed builds name(k, <name>v, <name>i) with n rows: k runs over the
// edge-key cycle, v is a unique string, i the row's ordinal.
func keyed(name string, n int) *Relation {
	r := NewRelation(NewSchema(name, "",
		Attribute{Name: "k"},
		Attribute{Name: name + "v", Type: KindString},
		Attribute{Name: name + "i", Type: KindInt}))
	for i := 0; i < n; i++ {
		r.InsertVals(edgeKey(i), S(fmt.Sprintf("%s%d", name, i)), I(int64(i)))
	}
	return r
}

// input is one way of feeding a keyed relation to a kernel: the
// iterator and the rows it carries.
type input struct {
	name string
	it   func() Iterator
	rel  *Relation
}

// inputs feeds r plain and through a filter dropping every third row,
// so the kernel sees batches that carry a refined selection vector.
func inputs(r *Relation) []input {
	return []input{
		{"dense", func() Iterator { return NewScan(r) }, r},
		{"refined", func() Iterator {
			return NewFilter(NewScan(r), func(b *Batch) {
				ord := b.Col(2).Ints()
				b.Refine(func(row int) bool { return ord[row]%3 != 2 })
			})
		}, refFilter(r, func(t Tuple) bool { return t[2].Int()%3 != 2 })},
	}
}

// boundarySizes are the streaming-side row counts every kernel test
// runs: empty, tiny, and one under / at / one over a batch boundary.
var boundarySizes = []int{0, 1, 5, DefaultBatchSize - 1, DefaultBatchSize, DefaultBatchSize + 1}
