package her

import (
	"testing"

	"semjoin/internal/graph"
	"semjoin/internal/rel"
)

// figure1 builds the product relation and product vertices of the paper's
// Figure 1, where HER must identify fd1 ↔ pid1 by comparing name, issuer
// and type, some of which are one hop away in the graph.
func figure1() (*rel.Relation, *graph.Graph, map[string]graph.VertexID) {
	s := rel.NewSchema("product", "pid",
		rel.Attribute{Name: "pid", Type: rel.KindString},
		rel.Attribute{Name: "name", Type: rel.KindString},
		rel.Attribute{Name: "issuer", Type: rel.KindString},
		rel.Attribute{Name: "type", Type: rel.KindString},
	)
	r := rel.NewRelation(s)
	r.InsertVals(rel.S("fd1"), rel.S("GL ESG"), rel.S("GL"), rel.S("Funds"))
	r.InsertVals(rel.S("fd2"), rel.S("Beta"), rel.S("companyone"), rel.S("Stocks"))
	r.InsertVals(rel.S("fd4"), rel.S("RainForest"), rel.S("companytwo"), rel.S("Stocks"))

	g := graph.New()
	pid1 := g.AddVertex("pid1", "product")
	pid2 := g.AddVertex("pid2", "product")
	pid4 := g.AddVertex("pid4", "product")
	nameESG := g.AddVertex("GL ESG", "name")
	nameBeta := g.AddVertex("Beta", "name")
	nameRF := g.AddVertex("RainForest", "name")
	gl := g.AddVertex("GL", "company")
	c1 := g.AddVertex("companyone", "company")
	c2 := g.AddVertex("companytwo", "company")
	funds := g.AddVertex("Funds", "category")
	stocks := g.AddVertex("Stocks", "category")

	g.AddEdge(pid1, "name", nameESG)
	g.AddEdge(gl, "issue", pid1)
	g.AddEdge(pid1, "type", funds)
	g.AddEdge(pid2, "name", nameBeta)
	g.AddEdge(c1, "issue", pid2)
	g.AddEdge(pid2, "type", stocks)
	g.AddEdge(pid4, "name", nameRF)
	g.AddEdge(c2, "issue", pid4)
	g.AddEdge(pid4, "type", stocks)

	truth := map[string]graph.VertexID{"fd1": pid1, "fd2": pid2, "fd4": pid4}
	return r, g, truth
}

func TestSimilarityMatcherFindsTruth(t *testing.T) {
	r, g, truth := figure1()
	m := NewSimilarityMatcher(Config{TypeFilter: "product"})
	ms := m.Match(r, g)
	if len(ms) != 3 {
		t.Fatalf("matches = %d, want 3", len(ms))
	}
	for _, match := range ms {
		want := truth[match.TID.String()]
		if match.Vertex != want {
			t.Errorf("tuple %s matched vertex %d (%s), want %d",
				match.TID, match.Vertex, g.Label(match.Vertex), want)
		}
		if match.Score <= 0 || match.Score > 1 {
			t.Errorf("score out of range: %v", match.Score)
		}
	}
}

func TestSimilarityMatcherTypeFilter(t *testing.T) {
	r, g, _ := figure1()
	m := NewSimilarityMatcher(Config{TypeFilter: "category"})
	for _, match := range m.Match(r, g) {
		if g.Type(match.Vertex) != "category" {
			t.Fatal("type filter violated")
		}
	}
}

func TestSimilarityMatcherThreshold(t *testing.T) {
	r, g, _ := figure1()
	m := NewSimilarityMatcher(Config{Threshold: 0.99, TypeFilter: "product"})
	if got := m.Match(r, g); len(got) != 0 {
		t.Fatalf("high threshold should reject weak matches, got %d", len(got))
	}
}

func TestSimilarityMatcherOneToOne(t *testing.T) {
	// Two identical tuples compete for one vertex.
	s := rel.NewSchema("r", "id",
		rel.Attribute{Name: "id", Type: rel.KindString},
		rel.Attribute{Name: "name", Type: rel.KindString},
	)
	r := rel.NewRelation(s)
	r.InsertVals(rel.S("t1"), rel.S("alpha"))
	r.InsertVals(rel.S("t2"), rel.S("alpha"))
	g := graph.New()
	g.AddVertex("alpha", "thing")

	many := NewSimilarityMatcher(Config{}).Match(r, g)
	if len(many) != 2 {
		t.Fatalf("without one-to-one both tuples should match: %d", len(many))
	}
	one := NewSimilarityMatcher(Config{OneToOne: true}).Match(r, g)
	if len(one) != 1 {
		t.Fatalf("one-to-one should keep a single match: %d", len(one))
	}
}

func TestSimilarityMatcherSkipsEmptyTuples(t *testing.T) {
	s := rel.NewSchema("r", "id", rel.Attribute{Name: "id", Type: rel.KindString})
	r := rel.NewRelation(s)
	r.InsertVals(rel.Null)
	g := graph.New()
	g.AddVertex("x", "")
	if got := NewSimilarityMatcher(Config{}).Match(r, g); len(got) != 0 {
		t.Fatal("all-null tuple should not match")
	}
}

func TestOracleMatcher(t *testing.T) {
	r, g, truth := figure1()
	o := NewOracleMatcher(truth)
	ms := o.Match(r, g)
	if len(ms) != 3 {
		t.Fatalf("oracle matches = %d", len(ms))
	}
	for _, m := range ms {
		if truth[m.TID.String()] != m.Vertex {
			t.Fatal("oracle returned wrong vertex")
		}
	}
	// Deleted vertices are skipped.
	g.RemoveVertex(truth["fd1"])
	if got := o.Match(r, g); len(got) != 2 {
		t.Fatalf("oracle should skip dead vertices: %d", len(got))
	}
}

func TestNoisyMatcher(t *testing.T) {
	r, g, truth := figure1()
	base := NewOracleMatcher(truth)
	noisy := WithNoise(base, 1.0, 5) // corrupt everything
	ms := noisy.Match(r, g)
	if len(ms) != 3 {
		t.Fatalf("noisy matches = %d", len(ms))
	}
	for _, m := range ms {
		if m.Vertex == truth[m.TID.String()] {
			t.Fatal("eta=1 should corrupt every match")
		}
	}
	clean := WithNoise(base, 0, 5).Match(r, g)
	for _, m := range clean {
		if m.Vertex != truth[m.TID.String()] {
			t.Fatal("eta=0 should corrupt nothing")
		}
	}
	// Partial corruption count.
	r2, g2, truth2 := figure1()
	half := WithNoise(NewOracleMatcher(truth2), 0.34, 6).Match(r2, g2)
	bad := 0
	for _, m := range half {
		if m.Vertex != truth2[m.TID.String()] {
			bad++
		}
	}
	if bad != 1 { // 3 * 0.34 = 1.02 → 1
		t.Fatalf("corrupted = %d, want 1", bad)
	}
	_ = g2
}
