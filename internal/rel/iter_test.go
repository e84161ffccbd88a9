package rel

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// eq compares two relations tuple-by-tuple after stable-sorting both,
// so pipelined and eager results can be checked for set equality.
func eqSorted(t *testing.T, a, b *Relation) {
	t.Helper()
	if len(a.Schema.Attrs) != len(b.Schema.Attrs) {
		t.Fatalf("arity %d vs %d", len(a.Schema.Attrs), len(b.Schema.Attrs))
	}
	if a.Len() != b.Len() {
		t.Fatalf("size %d vs %d", a.Len(), b.Len())
	}
	key := func(tp Tuple) string {
		var sb strings.Builder
		for _, v := range tp {
			sb.WriteString(v.Key())
			sb.WriteByte('|')
		}
		return sb.String()
	}
	counts := map[string]int{}
	for _, tp := range a.Tuples {
		counts[key(tp)]++
	}
	for _, tp := range b.Tuples {
		counts[key(tp)]--
		if counts[key(tp)] < 0 {
			t.Fatalf("tuple %v only in second relation", tp)
		}
	}
}

func TestPipelineEquivalenceWithEager(t *testing.T) {
	c, p := customers(), products()
	// Eager: σ → π over customers.
	eagerSel := Select(c, func(tp Tuple) bool { return c.Get(tp, "credit").Equal(S("good")) })
	eager := must(Project(eagerSel, "cid", "name"))
	// Pipelined: same plan as an operator tree.
	it := NewProject(
		NewSelect(NewScan(c), func(tp Tuple) bool { return tp[2].Equal(S("good")) }),
		"cid", "name")
	piped := must(Materialize(context.Background(), it))
	eqSorted(t, eager, piped)

	// Hash join, both build sides, against the eager nested-loop join
	// on the same equality.
	iss := NewRelation(NewSchema("iss", "issuer", Attribute{Name: "issuer"}, Attribute{Name: "country"}))
	iss.InsertVals(S("G&L"), S("UK"))
	iss.InsertVals(S("company1"), S("UK"))
	pi := p.Schema.Col("issuer")
	eagerJ := must(NestedLoopJoin(p, iss, func(j Tuple) bool {
		return !j[pi].IsNull() && j[pi].Equal(j[len(p.Schema.Attrs)])
	}))
	for _, buildLeft := range []bool{true, false} {
		jt := NewHashJoinP(NewScan(p), NewScan(iss), "issuer", "issuer", buildLeft, 1)
		pj := must(Materialize(context.Background(), jt))
		eqSorted(t, eagerJ, pj)
	}
}

func TestHashJoinIterNullKeysBothSides(t *testing.T) {
	a := NewRelation(NewSchema("a", "", Attribute{Name: "k"}, Attribute{Name: "v"}))
	a.InsertVals(Null, I(1))
	a.InsertVals(I(7), I(2))
	b := NewRelation(NewSchema("b", "", Attribute{Name: "k"}))
	b.InsertVals(Null)
	b.InsertVals(I(7))
	for _, buildLeft := range []bool{true, false} {
		j := must(Materialize(context.Background(),
			NewHashJoinP(NewScan(a), NewScan(b), "k", "k", buildLeft, 1)))
		if j.Len() != 1 {
			t.Fatalf("buildLeft=%v: rows = %d, want 1 (nulls must not join)", buildLeft, j.Len())
		}
		if j.Tuples[0][0].Int() != 7 {
			t.Fatalf("joined wrong row: %v", j.Tuples[0])
		}
	}
}

func TestUnionArityMismatchError(t *testing.T) {
	a := NewRelation(NewSchema("a", "", Attribute{Name: "x"}))
	b := NewRelation(NewSchema("b", "", Attribute{Name: "x"}, Attribute{Name: "y"}))
	if _, err := Materialize(nil, NewUnion(NewScan(a), NewScan(b))); err == nil {
		t.Fatal("expected arity mismatch error")
	}
	it := NewUnion(NewScan(a), NewScan(b))
	defer it.Close()
	if err := it.Open(context.Background()); err == nil {
		t.Fatal("iterator Open should surface the arity mismatch")
	} else if !strings.Contains(err.Error(), "arity mismatch") {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestOpenErrorsInsteadOfPanics(t *testing.T) {
	r := customers()
	cases := []Iterator{
		NewProject(NewScan(r), "no_such"),
		NewSort(NewScan(r), SortKey{Attr: "no_such"}),
		NewHashJoinP(NewScan(r), NewScan(r), "no_such", "cid", true, 1),
		NewAggregate(NewScan(r), []string{"no_such"}, nil),
	}
	for i, it := range cases {
		if _, err := Materialize(context.Background(), it); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestMaterializeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Materialize(ctx, NewScan(customers())); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMaterializeOwnsFreshSlices(t *testing.T) {
	r := customers()
	out := must(Materialize(context.Background(), NewScan(r)))
	if out.Len() != r.Len() {
		t.Fatalf("rows = %d", out.Len())
	}
	// Appending to the materialised copy must not disturb the source.
	before := r.Len()
	out.Tuples = append(out.Tuples[:1], out.Tuples[2:]...)
	if r.Len() != before {
		t.Fatal("materialised relation shares its Tuples slice with the source")
	}
}

func TestSelectRenameNoAliasing(t *testing.T) {
	// Satellite (b): the eager Select/Rename shims must hand out Tuples
	// slices whose backing arrays are not shared with the source, per the
	// ownership rule on Relation.
	r := customers()
	sel := Select(r, func(Tuple) bool { return true })
	if sel.Len() != r.Len() {
		t.Fatalf("rows = %d", sel.Len())
	}
	sel.Tuples[0], sel.Tuples[1] = sel.Tuples[1], sel.Tuples[0]
	if r.Get(r.Tuples[0], "cid").Str() != "cid01" {
		t.Fatal("Select shares its Tuples backing array with the source")
	}
	ren := Rename(r, "alias")
	ren.Tuples = ren.Tuples[:0]
	if r.Len() == 0 {
		t.Fatal("Rename shares its Tuples backing array with the source")
	}
}

func TestCollectStatsCountsRows(t *testing.T) {
	c := customers()
	it := NewLimit(NewSort(NewScan(c), Asc("cid")...), 2)
	out := must(Materialize(context.Background(), it))
	if out.Len() != 2 {
		t.Fatalf("rows = %d", out.Len())
	}
	st := CollectStats(it)
	if len(st.Lines) != 3 {
		t.Fatalf("plan lines = %d, want 3\n%s", len(st.Lines), st)
	}
	// Pre-order: limit, sort, scan.
	if st.Lines[0].Rows != 2 || st.Lines[1].Rows < 2 || st.Lines[2].Rows != int64(c.Len()) {
		t.Fatalf("rows-out wrong:\n%s", st)
	}
	if st.Lines[2].Depth != 2 {
		t.Fatalf("scan depth = %d", st.Lines[2].Depth)
	}
	if !strings.Contains(st.String(), "rows=") {
		t.Fatalf("rendering missing rows=:\n%s", st)
	}
	if st.TotalRows() < int64(c.Len())+2 {
		t.Fatalf("TotalRows = %d", st.TotalRows())
	}
}

func TestIteratorRewind(t *testing.T) {
	// Operators must be re-openable: a second Materialize of the same
	// tree replays it from the start.
	a := NewRelation(NewSchema("a", "", Attribute{Name: "x"}))
	a.InsertVals(I(1))
	a.InsertVals(I(2))
	b := NewRelation(NewSchema("b", "", Attribute{Name: "y"}))
	b.InsertVals(I(3))
	b.InsertVals(I(4))
	it := NewCrossJoin([]Iterator{NewScan(a), NewScan(b)}, []string{"a", "b"})
	out := must(Materialize(context.Background(), it))
	if out.Len() != 4 {
		t.Fatalf("cross rows = %d", out.Len())
	}
	again := must(Materialize(context.Background(), it))
	eqSorted(t, out, again)
}

// closeTracker counts Open/Close calls through to the wrapped iterator.
type closeTracker struct {
	Iterator
	opens, closes int
}

func (c *closeTracker) Open(ctx context.Context) error { c.opens++; return c.Iterator.Open(ctx) }
func (c *closeTracker) Close() error                   { c.closes++; return c.Iterator.Close() }

// noopKernel yields no batches; it exists so tests can build an op with
// arbitrary children without any kernel behaviour.
type noopKernel struct{ baseKernel }

func (noopKernel) next(o *op) (*Batch, error) { return nil, nil }

// TestOpenFailureClosesOpenedChildren pins the atomicity of op.Open:
// when a child fails to open mid-fan, every child opened before it
// (and the failed child itself) must be closed before the error
// propagates — a caller that only forwards the error must not strand
// open iterators. Found by the iterclose analyzer during the
// semjoinlint baseline cleanup.
func TestOpenFailureClosesOpenedChildren(t *testing.T) {
	r := customers()
	a := &closeTracker{Iterator: NewScan(r)}
	bad := &closeTracker{Iterator: errOp("boom", errors.New("boom"))}
	after := &closeTracker{Iterator: NewScan(r)}
	it := newOp("parent", noopKernel{}, a, bad, after)

	if err := it.Open(context.Background()); err == nil {
		t.Fatal("expected Open to fail through the failing child")
	}
	if a.opens != 1 || a.closes != 1 {
		t.Fatalf("first child: opens=%d closes=%d, want 1/1", a.opens, a.closes)
	}
	if bad.closes != 1 {
		t.Fatalf("failed child: closes=%d, want 1", bad.closes)
	}
	if after.opens != 0 {
		t.Fatalf("later child was opened (%d times) despite the earlier failure", after.opens)
	}
	// The documented convention — close even after a failed Open — must
	// stay safe on the already-unwound tree.
	if err := it.Close(); err != nil {
		t.Fatalf("Close after failed Open: %v", err)
	}
}

// TestKernelFailureClosesChildren covers the other two unwind paths:
// a kernel that fails to resolve (or open) must close the children
// that were already opened.
func TestKernelFailureClosesChildren(t *testing.T) {
	child := &closeTracker{Iterator: NewScan(customers())}
	it := newOp("parent", &errKernel{err: errors.New("resolve failed")}, child)
	if err := it.Open(context.Background()); err == nil {
		t.Fatal("expected Open to fail in the kernel")
	}
	if child.opens != 1 || child.closes != 1 {
		t.Fatalf("child: opens=%d closes=%d, want 1/1", child.opens, child.closes)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close after failed Open: %v", err)
	}
}

// TestLateBindFailureClosesTree: a filter whose bind fails at Open
// must not leave its child open, and a second Close stays safe.
func TestLateBindFailureClosesTree(t *testing.T) {
	child := &closeTracker{Iterator: NewScan(customers())}
	it := NewFilterWith("select", child, func(*Schema) (BatchPred, error) {
		return nil, errors.New("boom")
	})
	// The bind already failed once at construction; Open retries it.
	if err := it.Open(context.Background()); err == nil {
		t.Fatal("expected bind error")
	}
	if child.opens != child.closes {
		t.Fatalf("child: opens=%d closes=%d", child.opens, child.closes)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close after failed Open: %v", err)
	}
}

func TestStatsReportBatchCounts(t *testing.T) {
	r := numbered(300)
	it := NewFilter(NewScanSize(r, 100), func(b *Batch) {
		x := b.Col(0).Ints()
		b.Refine(func(row int) bool { return x[row] < 150 })
	})
	if out := must(Materialize(context.Background(), it)); out.Len() != 150 {
		t.Fatalf("rows = %d", out.Len())
	}
	sel := CollectStats(it).Lines[0]
	if sel.Label != "select" || sel.Batches != 2 || sel.Rows != 150 {
		t.Fatalf("select line = %+v, want 150 rows in 2 batches (the third is fully filtered)", sel)
	}
}

func TestPlanLineBatchesRoundTrip(t *testing.T) {
	l := PlanLine{Depth: 2, Label: "select", Note: "x [y]", Rows: 500, Batches: 4, Workers: 3}
	s := l.String()
	if !strings.Contains(s, "batches=4 rows/batch=125") {
		t.Fatalf("rendered %q", s)
	}
	got, ok := ParsePlanLine(s)
	if !ok {
		t.Fatalf("unparseable: %q", s)
	}
	if got.Batches != 4 || got.Rows != 500 || got.Workers != 3 || got.Note != "x [y]" || got.Depth != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	// Lines without batch annotations still parse.
	plain := PlanLine{Label: "scan t", Rows: 10}
	got, ok = ParsePlanLine(plain.String())
	if !ok || got.Batches != 0 {
		t.Fatalf("plain round trip = %+v ok=%v", got, ok)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	vals := []Value{I(1), S("x"), Null, F(2.5), B(true), I(-7), Null, S("")}
	var v Vector
	for _, val := range vals {
		v.Append(val)
	}
	if v.Len() != len(vals) {
		t.Fatalf("len = %d", v.Len())
	}
	for i, want := range vals {
		got := v.ValueAt(i)
		if got.Kind() != want.Kind() || got.Key() != want.Key() {
			t.Fatalf("row %d = %v (%v), want %v (%v)", i, got, got.Kind(), want, want.Kind())
		}
	}
	// Zero-copy slices see the same values under shifted indexes.
	sl := v.Slice(2, 6)
	if sl.Len() != 4 {
		t.Fatalf("slice len = %d", sl.Len())
	}
	for i := 0; i < 4; i++ {
		if sl.ValueAt(i).Key() != vals[2+i].Key() {
			t.Fatalf("slice row %d = %v, want %v", i, sl.ValueAt(i), vals[2+i])
		}
	}
}

func TestBatchTupleRoundTrip(t *testing.T) {
	r := keyed("t", 10)
	b := NewBatch(r.Schema)
	for _, tup := range r.Tuples {
		b.AppendTuple(tup)
	}
	if b.Rows() != 10 {
		t.Fatalf("rows = %d", b.Rows())
	}
	sameRows(t, b.appendTuples(nil), r.Tuples)
	sameRelation(t, b.Relation(), r)
}

func TestColumnarCacheInvalidation(t *testing.T) {
	r := keyed("c", 10)
	c1 := r.columns()
	if c2 := r.columns(); c2 != c1 {
		t.Fatal("cache not reused")
	}
	r.InsertVals(I(99), S("new"), I(10))
	c3 := r.columns()
	if c3 == c1 {
		t.Fatal("cache not invalidated by Insert")
	}
	if c3.n != 11 {
		t.Fatalf("cache rows = %d", c3.n)
	}
	sameRelation(t, mustMaterialize(t, NewScan(r)), r)
}
