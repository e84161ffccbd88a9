package rel

import (
	"strings"
	"testing"
	"testing/quick"
)

// must unwraps the error-returning operators in tests where the inputs
// are known-good fixtures.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// customers builds the paper's Figure 1 customer relation.
func customers() *Relation {
	s := NewSchema("customer", "cid",
		Attribute{Name: "cid", Type: KindString},
		Attribute{Name: "name", Type: KindString},
		Attribute{Name: "credit", Type: KindString},
		Attribute{Name: "bal", Type: KindInt},
		Attribute{Name: "address", Type: KindString},
	)
	r := NewRelation(s)
	r.InsertVals(S("cid01"), S("Bob"), S("fair"), I(500000), S("8 Oxford St., London, UK"))
	r.InsertVals(S("cid02"), S("Bob"), S("good"), I(110000), S("31 Minor Ave N, Seattle, US"))
	r.InsertVals(S("cid03"), S("Guy"), S("good"), I(50000), S("10115 Berlin, Germany"))
	r.InsertVals(S("cid04"), S("Ada"), S("fair"), I(100000), S("1200 Albert Ave, Texas, US"))
	return r
}

func products() *Relation {
	s := NewSchema("product", "pid",
		Attribute{Name: "pid", Type: KindString},
		Attribute{Name: "name", Type: KindString},
		Attribute{Name: "issuer", Type: KindString},
		Attribute{Name: "type", Type: KindString},
		Attribute{Name: "price", Type: KindInt},
		Attribute{Name: "risk", Type: KindString},
	)
	r := NewRelation(s)
	r.InsertVals(S("fd1"), S("G&L ESG"), S("G&L"), S("Funds"), I(90), S("medium"))
	r.InsertVals(S("fd2"), S("Beta"), S("company1"), S("Stocks"), I(120), S("high"))
	r.InsertVals(S("fd3"), S("G&L100"), S("G&L"), S("Funds"), I(100), S("low"))
	r.InsertVals(S("fd4"), S("RainForest"), S("company2"), S("Stocks"), I(80), S("medium"))
	return r
}

func TestValueBasics(t *testing.T) {
	if !S("x").Equal(S("x")) || S("x").Equal(S("y")) {
		t.Fatal("string equality wrong")
	}
	if !I(3).Equal(F(3)) {
		t.Fatal("cross-kind numeric equality should hold")
	}
	if Null.Equal(Null) {
		t.Fatal("null must not equal null")
	}
	if I(3).Key() != F(3).Key() {
		t.Fatal("numeric keys should coincide")
	}
	if S("3").Key() == I(3).Key() {
		t.Fatal("string and int keys must differ")
	}
	if I(2).Compare(F(2.5)) != -1 || F(2.5).Compare(I(2)) != 1 {
		t.Fatal("numeric ordering wrong")
	}
	if Null.Compare(S("a")) != -1 {
		t.Fatal("nulls should sort first")
	}
	if B(false).Compare(B(true)) != -1 {
		t.Fatal("bool ordering wrong")
	}
}

func TestValueAccessors(t *testing.T) {
	if I(7).Float() != 7 || F(2.5).Int() != 2 || B(true).Int() != 1 {
		t.Fatal("coercions wrong")
	}
	if S("hi").Str() != "hi" || !B(true).Bool() || I(1).Bool() {
		t.Fatal("accessors wrong")
	}
	if Null.String() != "NULL" || I(-4).String() != "-4" || F(0.5).String() != "0.5" {
		t.Fatal("String rendering wrong")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
	}{
		{"", KindNull},
		{"42", KindInt},
		{"4.5", KindFloat},
		{"true", KindBool},
		{"hello", KindString},
		{"41 High St", KindString},
	}
	for _, c := range cases {
		if got := Parse(c.in).Kind(); got != c.kind {
			t.Fatalf("Parse(%q).Kind = %v, want %v", c.in, got, c.kind)
		}
	}
}

func TestSchemaCol(t *testing.T) {
	s := NewSchema("customer", "cid",
		Attribute{Name: "cid"}, Attribute{Name: "name"})
	if s.Col("cid") != 0 || s.Col("name") != 1 {
		t.Fatal("plain lookup failed")
	}
	if s.Col("customer.name") != 1 {
		t.Fatal("qualified lookup failed")
	}
	if s.Col("other.name") != -1 || s.Col("missing") != -1 {
		t.Fatal("negative lookups failed")
	}
	if s.KeyCol() != 0 {
		t.Fatal("KeyCol wrong")
	}
	q := s.Qualified("T1")
	if q.Col("T1.cid") != 0 {
		t.Fatal("qualified schema direct lookup failed")
	}
	if q.Col("cid") != 0 {
		t.Fatal("qualified schema bare suffix lookup failed")
	}
}

func TestSchemaAmbiguousBareName(t *testing.T) {
	s := NewSchema("j", "",
		Attribute{Name: "a.x"}, Attribute{Name: "b.x"})
	if s.Col("x") != -1 {
		t.Fatal("ambiguous bare name should not resolve")
	}
	if s.Col("a.x") != 0 || s.Col("b.x") != 1 {
		t.Fatal("qualified names should resolve")
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSchema("r", "", Attribute{Name: "a"}, Attribute{Name: "a"})
}

func TestInsertArityPanics(t *testing.T) {
	r := customers()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Insert(Tuple{S("oops")})
}

func TestSelectProject(t *testing.T) {
	c := customers()
	good := Select(c, func(t Tuple) bool { return c.Get(t, "credit").Equal(S("good")) })
	if good.Len() != 2 {
		t.Fatalf("good credit count = %d", good.Len())
	}
	p := must(Project(good, "cid", "name"))
	if p.Len() != 2 || len(p.Schema.Attrs) != 2 {
		t.Fatal("projection wrong")
	}
	if p.Schema.Key != "cid" {
		t.Fatal("projection should retain key when projected")
	}
	p2 := must(Project(good, "name"))
	if p2.Schema.Key != "" {
		t.Fatal("projection should drop key when absent")
	}
}

func TestHashJoin(t *testing.T) {
	c, p := customers(), products()
	// Join customers to products on risk-ish fake condition: name == issuer
	// has no matches; use credit == risk ("good" vs levels) — no matches
	// either. Build a meaningful join: products issued by company named in
	// a small lookup relation instead.
	iss := NewRelation(NewSchema("iss", "issuer", Attribute{Name: "issuer"}, Attribute{Name: "country"}))
	iss.InsertVals(S("G&L"), S("UK"))
	iss.InsertVals(S("company1"), S("UK"))
	j := must(hashJoin(p, iss, "issuer", "issuer", false))
	if j.Len() != 3 {
		t.Fatalf("join size = %d, want 3", j.Len())
	}
	if j.Schema.Col("product.pid") < 0 || j.Schema.Col("iss.country") < 0 {
		t.Fatalf("qualified attrs missing: %v", j.Schema)
	}
	// Output layout invariant: a's values first.
	for _, tp := range j.Tuples {
		if tp[j.Schema.Col("product.issuer")].Str() != tp[j.Schema.Col("iss.issuer")].Str() {
			t.Fatal("join key mismatch in output")
		}
	}
	_ = c
}

// hashJoin materialises a ⋈ b on leftAttr = rightAttr through the
// hash-join kernel, building its table on a when buildLeft.
func hashJoin(a, b *Relation, leftAttr, rightAttr string, buildLeft bool) (*Relation, error) {
	return Materialize(nil, NewHashJoinP(NewScan(a), NewScan(b), leftAttr, rightAttr, buildLeft, 1))
}

func TestHashJoinBuildSideSwap(t *testing.T) {
	// Building on either side, of either join order, must not change
	// the size or the output layout (a's values first).
	a := NewRelation(NewSchema("a", "", Attribute{Name: "k"}, Attribute{Name: "va"}))
	for i := 0; i < 10; i++ {
		a.InsertVals(I(int64(i%3)), I(int64(i)))
	}
	b := NewRelation(NewSchema("b", "", Attribute{Name: "k"}, Attribute{Name: "vb"}))
	b.InsertVals(I(1), S("one"))
	for _, buildLeft := range []bool{true, false} {
		j1 := must(hashJoin(a, b, "k", "k", buildLeft))
		j2 := must(hashJoin(b, a, "k", "k", buildLeft))
		if j1.Len() != j2.Len() {
			t.Fatalf("buildLeft=%v: asymmetric join sizes: %d vs %d", buildLeft, j1.Len(), j2.Len())
		}
		for _, tp := range j1.Tuples {
			if tp[j1.Schema.Col("a.k")].Int() != 1 || tp[j1.Schema.Col("b.vb")].Str() != "one" {
				t.Fatalf("buildLeft=%v: layout broken: %v", buildLeft, tp)
			}
		}
		for _, tp := range j2.Tuples {
			if tp[j2.Schema.Col("b.vb")].Str() != "one" || tp[j2.Schema.Col("a.k")].Int() != 1 {
				t.Fatalf("buildLeft=%v: layout broken: %v", buildLeft, tp)
			}
		}
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	a := NewRelation(NewSchema("a", "", Attribute{Name: "k"}))
	a.InsertVals(Null)
	b := NewRelation(NewSchema("b", "", Attribute{Name: "k"}))
	b.InsertVals(Null)
	for _, buildLeft := range []bool{true, false} {
		if j := must(hashJoin(a, b, "k", "k", buildLeft)); j.Len() != 0 {
			t.Fatalf("buildLeft=%v: null keys must not join", buildLeft)
		}
	}
}

func TestNaturalJoin(t *testing.T) {
	// match(tid, vid) ⋈ extracted(vid, loc): the paper's reduction shape.
	match := NewRelation(NewSchema("match", "tid", Attribute{Name: "tid"}, Attribute{Name: "vid"}))
	match.InsertVals(S("fd1"), I(1))
	match.InsertVals(S("fd2"), I(2))
	ext := NewRelation(NewSchema("ext", "vid", Attribute{Name: "vid"}, Attribute{Name: "loc"}))
	ext.InsertVals(I(1), S("UK"))
	ext.InsertVals(I(3), S("US"))
	j := must(NaturalJoin(match, ext))
	if j.Len() != 1 {
		t.Fatalf("natural join size = %d, want 1", j.Len())
	}
	if j.Get(j.Tuples[0], "loc").Str() != "UK" || j.Get(j.Tuples[0], "tid").Str() != "fd1" {
		t.Fatalf("wrong tuple: %v", j.Tuples[0])
	}
	if len(j.Schema.Attrs) != 3 { // tid, vid, loc — shared vid appears once
		t.Fatalf("schema arity = %d, want 3", len(j.Schema.Attrs))
	}
}

func TestNaturalJoinNoSharedIsCross(t *testing.T) {
	a := NewRelation(NewSchema("a", "", Attribute{Name: "x"}))
	a.InsertVals(I(1))
	a.InsertVals(I(2))
	b := NewRelation(NewSchema("b", "", Attribute{Name: "y"}))
	b.InsertVals(I(3))
	j := must(NaturalJoin(a, b))
	if j.Len() != 2 {
		t.Fatalf("cross size = %d", j.Len())
	}
}

func TestThreeWayNaturalJoinReduction(t *testing.T) {
	// S ⋈ f(S,G) ⋈ h(S,G): verify the full enrichment-join reduction of
	// §IV-A on Figure 1 data.
	p := products()
	match := NewRelation(NewSchema("match", "", Attribute{Name: "pid"}, Attribute{Name: "vid"}))
	match.InsertVals(S("fd1"), I(101))
	match.InsertVals(S("fd2"), I(102))
	ext := NewRelation(NewSchema("ext", "", Attribute{Name: "vid"}, Attribute{Name: "company"}, Attribute{Name: "loc"}))
	ext.InsertVals(I(101), S("company1"), S("UK"))
	ext.InsertVals(I(102), S("company1"), S("US"))
	j := must(NaturalJoin(must(NaturalJoin(p, match)), ext))
	if j.Len() != 2 {
		t.Fatalf("enrichment size = %d", j.Len())
	}
	q := Select(j, func(t Tuple) bool {
		return j.Get(t, "pid").Equal(S("fd1")) && j.Get(t, "loc").Equal(S("UK"))
	})
	if q.Len() != 1 {
		t.Fatalf("Q1 result size = %d, want 1", q.Len())
	}
	res := must(Project(q, "risk", "company"))
	if res.Tuples[0][0].Str() != "medium" || res.Tuples[0][1].Str() != "company1" {
		t.Fatalf("Q1 answer = %v, want (medium, company1)", res.Tuples[0])
	}
}

func TestNestedLoopJoin(t *testing.T) {
	c, p := customers(), products()
	// Example 10's Q': bal >= 1000*price.
	j := must(NestedLoopJoin(c, p, func(joined Tuple) bool {
		bal := joined[3]     // customer.bal
		price := joined[5+4] // product.price (customer has 5 attrs)
		return !bal.IsNull() && bal.Float() >= 1000*price.Float()
	}))
	for _, tp := range j.Tuples {
		if tp[3].Float() < 1000*tp[9].Float() {
			t.Fatal("predicate violated")
		}
	}
	if j.Len() == 0 {
		t.Fatal("expected some joinable pairs")
	}
}

func TestCrossProduct(t *testing.T) {
	c, p := customers(), products()
	x := must(crossJoin([]*Relation{c, p}, []string{"c", "p"}))
	if x.Len() != c.Len()*p.Len() {
		t.Fatalf("cross size = %d", x.Len())
	}
	if x.Schema.Col("c.cid") < 0 || x.Schema.Col("p.pid") < 0 {
		t.Fatal("qualified names missing")
	}
}

func TestDistinctUnionSort(t *testing.T) {
	r := NewRelation(NewSchema("r", "", Attribute{Name: "x"}))
	r.InsertVals(I(2))
	r.InsertVals(I(1))
	r.InsertVals(I(2))
	d := must(Materialize(nil, NewDistinct(NewScan(r))))
	if d.Len() != 2 {
		t.Fatalf("distinct = %d", d.Len())
	}
	u := must(Materialize(nil, NewUnion(NewScan(d), NewScan(d))))
	if u.Len() != 4 {
		t.Fatalf("union = %d", u.Len())
	}
	s := must(Materialize(nil, NewSort(NewScan(r), Asc("x")...)))
	if s.Tuples[0][0].Int() != 1 || s.Tuples[2][0].Int() != 2 {
		t.Fatal("sort wrong")
	}
}

func TestSortStability(t *testing.T) {
	r := NewRelation(NewSchema("r", "", Attribute{Name: "k"}, Attribute{Name: "seq"}))
	for i := 0; i < 10; i++ {
		r.InsertVals(I(int64(i%2)), I(int64(i)))
	}
	s := must(Materialize(nil, NewSort(NewScan(r), Asc("k")...)))
	last := int64(-1)
	for _, t2 := range s.Tuples {
		if t2[0].Int() == 0 {
			if t2[1].Int() < last {
				t.Fatal("sort not stable")
			}
			last = t2[1].Int()
		}
	}
}

// aggregate materialises r grouped by groupBy through the aggregate
// kernel.
func aggregate(r *Relation, groupBy []string, specs []AggSpec) (*Relation, error) {
	return Materialize(nil, NewAggregate(NewScan(r), groupBy, specs))
}

func TestAggregate(t *testing.T) {
	p := products()
	a := must(aggregate(p, []string{"type"}, []AggSpec{
		{Func: AggCount, Attr: "*", As: "n"},
		{Func: AggAvg, Attr: "price", As: "avg_price"},
		{Func: AggMin, Attr: "price", As: "min_price"},
		{Func: AggMax, Attr: "price", As: "max_price"},
		{Func: AggSum, Attr: "price", As: "sum_price"},
	}))
	if a.Len() != 2 {
		t.Fatalf("groups = %d", a.Len())
	}
	for _, tp := range a.Tuples {
		switch a.Get(tp, "type").Str() {
		case "Funds":
			if a.Get(tp, "n").Int() != 2 || a.Get(tp, "avg_price").Float() != 95 {
				t.Fatalf("Funds agg wrong: %v", tp)
			}
			if a.Get(tp, "min_price").Float() != 90 || a.Get(tp, "max_price").Float() != 100 {
				t.Fatalf("Funds min/max wrong: %v", tp)
			}
		case "Stocks":
			if a.Get(tp, "sum_price").Float() != 200 {
				t.Fatalf("Stocks sum wrong: %v", tp)
			}
		default:
			t.Fatalf("unexpected group %v", tp)
		}
	}
}

func TestAggregateGlobalEmptyInput(t *testing.T) {
	r := NewRelation(NewSchema("r", "", Attribute{Name: "x"}))
	a := must(aggregate(r, nil, []AggSpec{{Func: AggCount, Attr: "*", As: "n"}, {Func: AggAvg, Attr: "x", As: "m"}}))
	if a.Len() != 1 {
		t.Fatal("global aggregate over empty input must yield one row")
	}
	if a.Get(a.Tuples[0], "n").Int() != 0 || !a.Get(a.Tuples[0], "m").IsNull() {
		t.Fatalf("empty aggregate wrong: %v", a.Tuples[0])
	}
}

func TestAggregateIgnoresNulls(t *testing.T) {
	r := NewRelation(NewSchema("r", "", Attribute{Name: "x"}))
	r.InsertVals(I(10))
	r.InsertVals(Null)
	a := must(aggregate(r, nil, []AggSpec{
		{Func: AggCount, Attr: "x", As: "n"},
		{Func: AggAvg, Attr: "x", As: "avg"},
	}))
	if a.Get(a.Tuples[0], "n").Int() != 1 || a.Get(a.Tuples[0], "avg").Float() != 10 {
		t.Fatalf("null handling wrong: %v", a.Tuples[0])
	}
}

func TestRelationString(t *testing.T) {
	p := products()
	s := p.String()
	if !strings.Contains(s, "pid") || !strings.Contains(s, "fd1") {
		t.Fatalf("table rendering missing data:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 2+p.Len() {
		t.Fatalf("rendered %d lines", len(lines))
	}
}

func TestGetMissingAttr(t *testing.T) {
	p := products()
	if !p.Get(p.Tuples[0], "no_such").IsNull() {
		t.Fatal("missing attribute should read as null")
	}
}

// Property: Compare is antisymmetric and Equal implies Compare == 0 for
// non-null values.
func TestValueCompareProperties(t *testing.T) {
	mk := func(tag uint8, n int64, s string) Value {
		switch tag % 4 {
		case 0:
			return I(n)
		case 1:
			return F(float64(n) / 3)
		case 2:
			return S(s)
		default:
			return B(n%2 == 0)
		}
	}
	f := func(t1, t2 uint8, n1, n2 int64, s1, s2 string) bool {
		a, b := mk(t1, n1, s1), mk(t2, n2, s2)
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		if a.Equal(b) && a.Compare(b) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: natural join result size never exceeds |A|*|B| and every output
// tuple agrees on shared attributes.
func TestNaturalJoinProperty(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a := NewRelation(NewSchema("a", "", Attribute{Name: "k"}, Attribute{Name: "x"}))
		for i, v := range av {
			a.InsertVals(I(int64(v%4)), I(int64(i)))
		}
		b := NewRelation(NewSchema("b", "", Attribute{Name: "k"}, Attribute{Name: "y"}))
		for i, v := range bv {
			b.InsertVals(I(int64(v%4)), I(int64(i)))
		}
		j := must(NaturalJoin(a, b))
		if j.Len() > a.Len()*b.Len() {
			return false
		}
		// Cross-check against nested-loop count.
		count := 0
		for _, ta := range a.Tuples {
			for _, tb := range b.Tuples {
				if ta[0].Equal(tb[0]) {
					count++
				}
			}
		}
		return j.Len() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
