package rel

import "testing"

// crossJoin materialises the Cartesian product of rels qualified by
// names through the streaming cross-join kernel.
func crossJoin(rels []*Relation, names []string) (*Relation, error) {
	its := make([]Iterator, len(rels))
	for i, r := range rels {
		its[i] = NewScan(r)
	}
	return Materialize(nil, NewCrossJoin(its, names))
}

func TestCrossJoinAll(t *testing.T) {
	a := NewRelation(NewSchema("a", "", Attribute{Name: "x"}))
	a.InsertVals(I(1))
	a.InsertVals(I(2))
	b := NewRelation(NewSchema("b", "", Attribute{Name: "y"}))
	b.InsertVals(S("p"))
	c := NewRelation(NewSchema("c", "", Attribute{Name: "z"}))
	c.InsertVals(B(true))
	c.InsertVals(B(false))
	c.InsertVals(Null)

	j := must(crossJoin([]*Relation{a, b, c}, []string{"A", "B", "C"}))
	if j.Len() != 2*1*3 {
		t.Fatalf("size = %d, want 6", j.Len())
	}
	// Flat single-level qualification.
	for _, name := range []string{"A.x", "B.y", "C.z"} {
		if j.Schema.Col(name) < 0 {
			t.Fatalf("missing column %q in %v", name, j.Schema)
		}
	}
	// No double-qualified names.
	for _, attr := range j.Schema.Attrs {
		if n := countDots(attr.Name); n != 1 {
			t.Fatalf("attribute %q has %d dots", attr.Name, n)
		}
	}
	// Row contents: first row is (1, p, true).
	if j.Tuples[0][0].Int() != 1 || j.Tuples[0][1].Str() != "p" || !j.Tuples[0][2].Bool() {
		t.Fatalf("row 0 = %v", j.Tuples[0])
	}
}

func TestCrossJoinAllEmptyRelation(t *testing.T) {
	a := NewRelation(NewSchema("a", "", Attribute{Name: "x"}))
	a.InsertVals(I(1))
	empty := NewRelation(NewSchema("b", "", Attribute{Name: "y"}))
	j := must(crossJoin([]*Relation{a, empty}, []string{"a", "b"}))
	if j.Len() != 0 {
		t.Fatal("cross with empty relation must be empty")
	}
}

func TestCrossJoinAllErrors(t *testing.T) {
	if _, err := crossJoin(nil, nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	a := NewRelation(NewSchema("a", "", Attribute{Name: "x"}))
	if _, err := crossJoin([]*Relation{a}, []string{"a", "b"}); err == nil {
		t.Fatal("expected error for name/relation count mismatch")
	}
}

func countDots(s string) int {
	n := 0
	for _, r := range s {
		if r == '.' {
			n++
		}
	}
	return n
}
