package rel

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// One table test per kernel: every streaming-side size in
// boundarySizes, dense and selection-refined inputs, keys drawn from
// the null / NaN / -0 / +0 / int-vs-float cycle, checked row for row
// against the naive references in ref_test.go.

// eachInput runs f over every boundary size and input form of a keyed
// relation named name.
func eachInput(t *testing.T, name string, f func(t *testing.T, in input)) {
	for _, n := range boundarySizes {
		for _, in := range inputs(keyed(name, n)) {
			t.Run(fmt.Sprintf("%s/n=%d/%s", name, n, in.name), func(t *testing.T) { f(t, in) })
		}
	}
}

func TestScanKernel(t *testing.T) {
	for _, n := range append([]int{3000}, boundarySizes...) {
		r := keyed("s", n)
		sameRelation(t, mustMaterialize(t, NewScan(r)), r)
	}
	it := NewScanSize(keyed("s", 10), 3)
	if out := mustMaterialize(t, it); out.Len() != 10 {
		t.Fatalf("rows = %d", out.Len())
	}
	if st := it.Stats(); st.Batches != 4 || st.RowsOut != 10 {
		t.Fatalf("batches = %d rows = %d, want 4 and 10", st.Batches, st.RowsOut)
	}
}

func TestFilterKernel(t *testing.T) {
	eachInput(t, "f", func(t *testing.T, in input) {
		p := func(tp Tuple) bool { return tp[2].Int()%2 == 0 }
		// A tuple predicate and a column-loop predicate stacked on
		// whatever selection the input already carries.
		got := mustMaterialize(t, NewFilter(NewSelect(in.it(), func(Tuple) bool { return true }), func(b *Batch) {
			ord := b.Col(2).Ints()
			b.Refine(func(row int) bool { return ord[row]%2 == 0 })
		}))
		sameRelation(t, got, refFilter(in.rel, p))
		sameRelation(t, mustMaterialize(t, NewSelect(in.it(), p)), refFilter(in.rel, p))
	})
}

func TestProjectRenameKernels(t *testing.T) {
	eachInput(t, "p", func(t *testing.T, in input) {
		got := mustMaterialize(t, NewRename(NewProject(in.it(), "pv", "k"), "q"))
		if s := got.Schema.String(); s != "q(pv, k)" {
			t.Fatalf("schema = %s", s)
		}
		var want []Tuple
		for _, tp := range in.rel.Tuples {
			want = append(want, Tuple{tp[1], tp[0]})
		}
		sameRows(t, got.Tuples, want)
	})
}

func TestCrossKernel(t *testing.T) {
	b, c := keyed("b", 3), keyed("c", 2)
	eachInput(t, "a", func(t *testing.T, in input) {
		for _, right := range inputs(b) {
			it := NewCrossJoin([]Iterator{in.it(), right.it(), NewScan(c)}, []string{"A", "B", "C"})
			got := mustMaterialize(t, it)
			if !strings.HasPrefix(got.Schema.String(), "cross(A.k, A.av, A.ai, B.k, ") {
				t.Fatalf("schema = %s", got.Schema)
			}
			sameRows(t, got.Tuples, refProduct([]*Relation{in.rel, right.rel, c}, nil))
			if st := it.Stats(); st.RowsOut > 0 && st.RowsOut/st.Batches > DefaultBatchSize {
				t.Fatalf("cross emitted %d rows in %d batches: output batches are unbounded", st.RowsOut, st.Batches)
			}
		}
	})
	// An empty right side empties the product.
	got := mustMaterialize(t, NewCrossJoin([]Iterator{NewScan(b), NewScan(keyed("e", 0))}, []string{"b", "e"}))
	if got.Len() != 0 {
		t.Fatalf("rows = %d, want 0", got.Len())
	}
}

func TestNestedLoopKernel(t *testing.T) {
	eachInput(t, "l", func(t *testing.T, in input) {
		for _, right := range inputs(keyed("r", 7)) {
			// Inequality on the ordinals plus key equality: no hash join
			// could evaluate it.
			p := func(j Tuple) bool { return j[2].Int()%5 >= j[5].Int() || joinEq(j[0], j[3]) }
			got := mustMaterialize(t, NewNestedLoopJoin(in.it(), right.it(), p))
			if s := got.Schema.String(); s != "l_r(l.k, l.lv, l.li, r.k, r.rv, r.ri)" {
				t.Fatalf("schema = %s", s)
			}
			sameRows(t, got.Tuples, refProduct([]*Relation{in.rel, right.rel}, p))
		}
	})
}

func TestHashJoinKernel(t *testing.T) {
	eachInput(t, "l", func(t *testing.T, in input) {
		for _, right := range inputs(keyed("r", 40)) {
			for _, buildLeft := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					got := mustMaterialize(t, NewHashJoinP(in.it(), right.it(), "k", "k", buildLeft, workers))
					want := refProduct([]*Relation{in.rel, right.rel}, func(j Tuple) bool { return joinEq(j[0], j[3]) })
					if buildLeft {
						// Probe order is the right side's; re-nest the loops.
						want = nil
						for _, rt := range right.rel.Tuples {
							for _, lt := range in.rel.Tuples {
								if joinEq(lt[0], rt[0]) {
									want = append(want, concat(lt, rt))
								}
							}
						}
					}
					sameRows(t, got.Tuples, want)
				}
			}
		}
	})
}

func TestParallelBuildHashJoinKernel(t *testing.T) {
	// Build sides around parallelBuildMin and the batch boundaries, so
	// the partitioned build runs over multi-batch, selection-refined
	// input with every key class present.
	probe := keyed("p", 50)
	for _, n := range []int{parallelBuildMin, DefaultBatchSize - 1, DefaultBatchSize + 1, 2 * DefaultBatchSize} {
		for _, build := range inputs(keyed("b", n)) {
			it := NewHashJoinP(NewScan(probe), build.it(), "k", "k", false, 4)
			got := mustMaterialize(t, it)
			sameRows(t, got.Tuples, refProduct([]*Relation{probe, build.rel}, func(j Tuple) bool { return joinEq(j[0], j[3]) }))
			if want := 4; build.rel.Len() >= parallelBuildMin && it.Stats().Workers != want {
				t.Fatalf("n=%d %s: workers stat = %d, want %d", n, build.name, it.Stats().Workers, want)
			}
		}
	}
	// Below the threshold the parallel build must not engage.
	it := NewHashJoinP(NewScan(probe), NewScan(keyed("b", 10)), "k", "k", false, 8)
	mustMaterialize(t, it)
	if it.Stats().Workers != 0 {
		t.Fatalf("small build should stay serial, workers = %d", it.Stats().Workers)
	}
}

func TestNaturalJoinKernel(t *testing.T) {
	natural := func(j Tuple) bool { return joinEq(j[0], j[3]) }
	eachInput(t, "l", func(t *testing.T, in input) {
		r := keyed("r", 40)
		var want []Tuple
		for _, j := range refProduct([]*Relation{in.rel, r}, natural) {
			want = append(want, concat(j[:3], j[4:]))
		}
		got := mustMaterialize(t, NewNaturalJoin(in.it(), r))
		if s := got.Schema.String(); s != "l_r(k, lv, li, rv, ri)" {
			t.Fatalf("schema = %s", s)
		}
		sameRows(t, got.Tuples, want)
	})
	// Two shared attributes take the Key-string path.
	l2 := NewRelation(NewSchema("l", "", Attribute{Name: "x"}, Attribute{Name: "y"}, Attribute{Name: "a"}))
	r2 := NewRelation(NewSchema("r", "", Attribute{Name: "x"}, Attribute{Name: "y"}, Attribute{Name: "b"}))
	for i := 0; i < 30; i++ {
		l2.InsertVals(edgeKey(i), I(int64(i%4)), S(fmt.Sprintf("a%d", i)))
		r2.InsertVals(edgeKey(i+3), I(int64(i%3)), S(fmt.Sprintf("b%d", i)))
	}
	var want []Tuple
	for _, j := range refProduct([]*Relation{l2, r2}, func(j Tuple) bool { return joinEq(j[0], j[3]) && joinEq(j[1], j[4]) }) {
		want = append(want, concat(j[:3], j[5:]))
	}
	sameRows(t, mustMaterialize(t, NewNaturalJoin(NewScanSize(l2, 7), r2)).Tuples, want)
	// No shared attribute: a Cartesian product with qualified names.
	p, q := keyed("p", 5), keyed("q", 4)
	q = must(Project(q, "qv", "qi"))
	got := mustMaterialize(t, NewNaturalJoin(NewScanSize(p, 2), q))
	if s := got.Schema.String(); s != "pxq(p.k, p.pv, p.pi, q.qv, q.qi)" {
		t.Fatalf("schema = %s", s)
	}
	sameRows(t, got.Tuples, refProduct([]*Relation{p, q}, nil))
}

func TestDistinctKernel(t *testing.T) {
	eachInput(t, "d", func(t *testing.T, in input) {
		// Project to the key column: few distinct values, spread over
		// every batch, with NaN, -0 and +0 each their own class.
		got := mustMaterialize(t, NewDistinct(NewProject(in.it(), "k")))
		keys := must(Project(in.rel, "k"))
		sameRows(t, got.Tuples, refDistinct(keys.Tuples))
	})
}

func TestUnionKernel(t *testing.T) {
	eachInput(t, "u", func(t *testing.T, in input) {
		other := keyed("o", 3)
		got := mustMaterialize(t, NewUnion(in.it(), NewScan(other), in.it()))
		if got.Schema.String() != in.rel.Schema.String() {
			t.Fatalf("schema = %s, want the first child's", got.Schema)
		}
		want := append(append(append([]Tuple(nil), in.rel.Tuples...), other.Tuples...), in.rel.Tuples...)
		sameRows(t, got.Tuples, want)
	})
}

func TestSortKernel(t *testing.T) {
	eachInput(t, "s", func(t *testing.T, in input) {
		// Key descending, ordinal bucket ascending: a tie on the major
		// key must keep the minor key's ascending order (a sort-then-
		// reverse implementation flips it), and full ties keep input
		// order.
		bucket := func(tp Tuple) Tuple { return Tuple{tp[0], tp[1], I(tp[2].Int() % 3)} }
		var rows []Tuple
		for _, tp := range in.rel.Tuples {
			rows = append(rows, bucket(tp))
		}
		src := NewRelation(in.rel.Schema)
		src.Tuples = rows
		it := NewSort(NewScan(src), SortKey{Attr: "k", Desc: true}, SortKey{Attr: "si"})
		sameRows(t, mustMaterialize(t, it).Tuples, refSort(rows, []int{0, 2}, []bool{true, false}))
		// And over the (possibly selection-refined) input itself.
		got := mustMaterialize(t, NewSort(in.it(), SortKey{Attr: "k", Desc: true}, SortKey{Attr: "sv"}))
		sameRows(t, got.Tuples, refSort(in.rel.Tuples, []int{0, 1}, []bool{true, false}))
	})
}

func TestLimitKernel(t *testing.T) {
	eachInput(t, "m", func(t *testing.T, in input) {
		for _, lim := range []int{0, 1, 7, DefaultBatchSize, DefaultBatchSize + 7, -1} {
			got := mustMaterialize(t, NewLimit(in.it(), lim))
			want := in.rel.Tuples
			if lim >= 0 && lim < len(want) {
				want = want[:lim]
			}
			sameRows(t, got.Tuples, want)
		}
	})
}

func TestAggregateKernel(t *testing.T) {
	specs := []AggSpec{
		{Func: AggCount, Attr: "*", As: "n"},
		{Func: AggCount, Attr: "k", As: "nk"},
		{Func: AggSum, Attr: "gi", As: "s"},
		{Func: AggAvg, Attr: "gi", As: "a"},
		{Func: AggMin, Attr: "gv", As: "lo"},
		{Func: AggMax, Attr: "gv", As: "hi"},
	}
	eachInput(t, "g", func(t *testing.T, in input) {
		got := mustMaterialize(t, NewAggregate(in.it(), []string{"k"}, specs))
		// Map group-by in first-occurrence order.
		type acc struct {
			key          Value
			n, nk        int64
			sum          float64
			lo, hi       Value
			seenLo, seen bool
		}
		groups := map[string]*acc{}
		var order []*acc
		for _, tp := range in.rel.Tuples {
			g := groups[tp[0].Key()]
			if g == nil {
				g = &acc{key: tp[0], lo: Null, hi: Null}
				groups[tp[0].Key()] = g
				order = append(order, g)
			}
			g.n++
			if !tp[0].IsNull() {
				g.nk++
			}
			g.sum += tp[2].Float()
			if g.lo.IsNull() || tp[1].Compare(g.lo) < 0 {
				g.lo = tp[1]
			}
			if g.hi.IsNull() || tp[1].Compare(g.hi) > 0 {
				g.hi = tp[1]
			}
		}
		var want []Tuple
		for _, g := range order {
			want = append(want, Tuple{g.key, I(g.n), I(g.nk), F(g.sum), F(g.sum / float64(g.n)), g.lo, g.hi})
		}
		sameRows(t, got.Tuples, want)
	})
	// A single global group, even over an empty input (SQL COUNT).
	got := mustMaterialize(t, NewAggregate(NewScan(keyed("g", 0)), nil, specs[:1]))
	sameRows(t, got.Tuples, []Tuple{{I(0)}})
}

func TestGenerateApplyKernels(t *testing.T) {
	eachInput(t, "g", func(t *testing.T, in input) {
		// Generate: the gathered input arrives as one batch whose live
		// rows are the input's; echo them back a few rows per batch.
		gen := NewGenerate("echo", []Iterator{in.it()}, func(ctx context.Context, ins []*Batch) (Generated, error) {
			src, i := ins[0], 0
			return Generated{Schema: src.Schema(), Note: "echoed", Workers: 2, Pull: func() (*Batch, error) {
				if i >= src.Rows() {
					return nil, nil
				}
				var rows []int32
				for ; i < src.Rows() && len(rows) < 100; i++ {
					rows = append(rows, int32(src.RowIdx(i)))
				}
				out := NewBatch(src.Schema())
				out.Gather(0, src, rows)
				return out, nil
			}}, nil
		})
		if gen.Schema() != nil {
			t.Fatal("a generator's schema must be unknown before Open")
		}
		sameRelation(t, mustMaterialize(t, gen), in.rel)
		if st := gen.Stats(); st.Note != "echoed" || st.Workers != 2 {
			t.Fatalf("note = %q workers = %d", st.Note, st.Workers)
		}
		// Apply: relation in, relation out.
		app := NewApply("rev", []Iterator{in.it()}, func(ctx context.Context, ins []*Relation) (*Relation, string, error) {
			out := NewRelation(ins[0].Schema)
			for i := len(ins[0].Tuples) - 1; i >= 0; i-- {
				out.Tuples = append(out.Tuples, ins[0].Tuples[i])
			}
			return out, "reversed", nil
		})
		var want []Tuple
		for i := in.rel.Len() - 1; i >= 0; i-- {
			want = append(want, in.rel.Tuples[i])
		}
		sameRows(t, mustMaterialize(t, app).Tuples, want)
		if app.Stats().Note != "reversed" {
			t.Fatalf("note = %q", app.Stats().Note)
		}
	})
}
