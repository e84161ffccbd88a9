package core

import (
	"sort"
	"testing"

	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/rel"
)

// relationKey canonicalises a relation's tuples for order-insensitive
// comparison.
func relationKey(r *rel.Relation) []string {
	out := make([]string, 0, r.Len())
	for _, t := range r.Tuples {
		k := ""
		for _, v := range t {
			k += v.Key() + "|"
		}
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameRelation(a, b *rel.Relation) bool {
	ka, kb := relationKey(a), relationKey(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// freshWorld builds an isolated fixture (tests that mutate the graph must
// not share the global one).
func freshWorld() *world { return buildWorld() }

func TestIncExtMatchesFromScratch(t *testing.T) {
	// The paper: "there exists no accuracy loss in IncExt compared with
	// RExt starting from scratch, since pattern matching results ... are
	// the same". Apply ΔG incrementally and compare against Algorithm 1
	// re-run with the same scheme on the updated graph.
	w := freshWorld()
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company", "country"}, Seed: 3,
	})
	if _, err := ex.Run(w.products, oracle(w).Match(w.products, w.g)); err != nil {
		t.Fatal(err)
	}
	scheme := ex.Scheme()

	// ΔG: move fd00's issuer from Acme to Globex and rewire one country.
	acme := findVertex(w.g, "Acme Corp")
	globex := findVertex(w.g, "Globex Corp")
	uk := findVertex(w.g, "UK")
	fr := findVertex(w.g, "France")
	p0 := w.truth["fd00"]
	delta := graph.Batch{
		{Op: graph.DeleteEdge, Edge: graph.Edge{From: acme, Label: "issues", To: p0}},
		{Op: graph.InsertEdge, Edge: graph.Edge{From: globex, Label: "issues", To: p0}},
		{Op: graph.DeleteEdge, Edge: graph.Edge{From: acme, Label: "registered_in", To: uk}},
		{Op: graph.InsertEdge, Edge: graph.Edge{From: acme, Label: "registered_in", To: fr}},
	}

	stats, err := ex.ApplyGraphUpdate(delta, oracle(w))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Affected == 0 {
		t.Fatal("update near matched vertices should affect extraction")
	}
	// The fixture is small and dense, so a company-level update can
	// legitimately reach every product within k hops; locality gains are
	// exercised on larger graphs in the Fig 5(h) benchmark.
	if stats.Affected > w.products.Len() {
		t.Fatalf("affected %d exceeds matched entities", stats.Affected)
	}

	// From-scratch Algorithm 1 on the updated graph with the same scheme.
	fresh := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company", "country"}, Seed: 3,
	})
	want, err := fresh.ExtractWithScheme(w.products, scheme, oracle(w).Match(w.products, w.g))
	if err != nil {
		t.Fatal(err)
	}
	if !sameRelation(ex.Result(), want) {
		t.Fatalf("IncExt diverged from from-scratch extraction:\ninc:\n%v\nfresh:\n%v",
			ex.Result(), want)
	}

	// And the semantics moved: fd00's company is now Globex.
	m := ex.MatchRelation()
	joined := natJoin3(t, w.products, m, ex.Result())
	for _, tp := range joined.Tuples {
		if joined.Get(tp, "pid").Str() == "fd00" {
			if got := joined.Get(tp, "company").Str(); got != "Globex Corp" {
				t.Fatalf("fd00 company after update = %q", got)
			}
		}
	}
}

func TestIncExtVertexDeletionDropsRow(t *testing.T) {
	w := freshWorld()
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company"}, Seed: 3,
	})
	if _, err := ex.Run(w.products, oracle(w).Match(w.products, w.g)); err != nil {
		t.Fatal(err)
	}
	before := ex.Result().Len()
	delta := graph.Batch{{Op: graph.DeleteVertex, Edge: graph.Edge{From: w.truth["fd03"]}}}
	stats, err := ex.ApplyGraphUpdate(delta, oracle(w))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 {
		t.Fatalf("removed = %d, want 1", stats.Removed)
	}
	if ex.Result().Len() != before-1 {
		t.Fatalf("rows = %d, want %d", ex.Result().Len(), before-1)
	}
}

func TestIncExtNewVertexGetsRow(t *testing.T) {
	w := freshWorld()
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company"}, Seed: 3,
	})
	if _, err := ex.Run(w.products, oracle(w).Match(w.products, w.g)); err != nil {
		t.Fatal(err)
	}
	before := ex.Result().Len()

	// A new product appears in the graph and in the relation.
	acme := findVertex(w.g, "Acme Corp")
	delta := graph.Batch{{Op: graph.InsertVertex, Label: "prod 99", Type: "product"}}
	touched := delta.Apply(w.g)
	newV := touched[0]
	w.g.AddEdge(acme, "issues", newV)
	w.products.InsertVals(rel.S("fd99"), rel.S("prod 99"), rel.S("Funds"))
	w.truth["fd99"] = newV

	stats, err := ex.ApplyGraphUpdate(nil, oracle(w))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Affected == 0 {
		t.Fatal("new match should be re-extracted")
	}
	if ex.Result().Len() != before+1 {
		t.Fatalf("rows = %d, want %d", ex.Result().Len(), before+1)
	}
}

func TestIncExtRequiresCompletedRun(t *testing.T) {
	w := getWorld(t)
	ex := NewExtractor(w.g, w.models, Config{Keywords: []string{"x"}})
	if _, err := ex.ApplyGraphUpdate(nil, oracle(w)); err == nil {
		t.Fatal("expected error before a run")
	}
	if _, err := ex.UpdateKeywords([]string{"x"}); err == nil {
		t.Fatal("expected error before a run")
	}
}

func TestUpdateKeywordsAddsAttribute(t *testing.T) {
	w := freshWorld()
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company"}, Seed: 3,
	})
	if _, err := ex.Run(w.products, oracle(w).Match(w.products, w.g)); err != nil {
		t.Fatal(err)
	}
	oldCompany := map[int64]string{}
	vidCol := ex.Result().Schema.Col("vid")
	cCol := ex.Result().Schema.Col("company")
	for _, tp := range ex.Result().Tuples {
		oldCompany[tp[vidCol].Int()] = tp[cCol].Str()
	}

	dg, err := ex.UpdateKeywords([]string{"company", "country"})
	if err != nil {
		t.Fatal(err)
	}
	if !dg.Schema.Has("country") {
		t.Fatalf("country missing after keyword update: %v", dg.Schema)
	}
	// Retained attribute values are copied, not recomputed differently.
	nVid, nC := dg.Schema.Col("vid"), dg.Schema.Col("company")
	for _, tp := range dg.Tuples {
		if tp[nC].Str() != oldCompany[tp[nVid].Int()] {
			t.Fatalf("company changed for vid %d", tp[nVid].Int())
		}
	}
	// New attribute is actually populated.
	m := ex.MatchRelation()
	joined := natJoin3(t, w.products, m, dg)
	if acc := accuracy(t, joined, "country", w.country); acc < 0.9 {
		t.Fatalf("country accuracy after keyword update = %.2f", acc)
	}
}

func TestUpdateKeywordsShrink(t *testing.T) {
	w := freshWorld()
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company", "country"}, Seed: 3,
	})
	if _, err := ex.Run(w.products, oracle(w).Match(w.products, w.g)); err != nil {
		t.Fatal(err)
	}
	dg, err := ex.UpdateKeywords([]string{"country"})
	if err != nil {
		t.Fatal(err)
	}
	if dg.Schema.Has("company") {
		t.Fatal("dropped keyword should drop the attribute")
	}
	if !dg.Schema.Has("country") {
		t.Fatal("kept keyword lost")
	}
	if dg.Len() != w.products.Len() {
		t.Fatalf("rows = %d", dg.Len())
	}
}

func findVertex(g *graph.Graph, label string) graph.VertexID {
	id := graph.NoVertex
	g.Vertices(func(v graph.Vertex) {
		if v.Label == label && id == graph.NoVertex {
			id = v.ID
		}
	})
	return id
}

var _ = her.Match{} // keep her imported for fixture reuse

func TestApplyRelationUpdate(t *testing.T) {
	w := freshWorld()
	// Start with two thirds of the products.
	twoThirds := rel.NewRelation(w.products.Schema)
	for i, tp := range w.products.Tuples {
		if i%3 != 0 {
			twoThirds.Insert(tp)
		}
	}
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company"}, Seed: 3,
	})
	if _, err := ex.Run(twoThirds, oracle(w).Match(twoThirds, w.g)); err != nil {
		t.Fatal(err)
	}
	before := ex.Result().Len()

	// D update: the full relation arrives (inserts) — only the new
	// tuples' vertices should be extracted.
	stats, err := ex.ApplyRelationUpdate(w.products, oracle(w))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Affected != w.products.Len()-before {
		t.Fatalf("affected = %d, want %d", stats.Affected, w.products.Len()-before)
	}
	if stats.Removed != 0 {
		t.Fatalf("removed = %d", stats.Removed)
	}
	if ex.Result().Len() != w.products.Len() {
		t.Fatalf("rows = %d, want %d", ex.Result().Len(), w.products.Len())
	}
	// Values match a from-scratch extraction with the same scheme.
	fresh := NewExtractor(w.g, w.models, Config{K: 3, H: 12, Keywords: []string{"company"}, Seed: 3})
	want, err := fresh.ExtractWithScheme(w.products, ex.Scheme(), oracle(w).Match(w.products, w.g))
	if err != nil {
		t.Fatal(err)
	}
	if !sameRelation(ex.Result(), want) {
		t.Fatal("relation update diverged from from-scratch extraction")
	}

	// D update: shrink back — rows for unmatched vertices are dropped.
	stats, err = ex.ApplyRelationUpdate(twoThirds, oracle(w))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != w.products.Len()-before || ex.Result().Len() != before {
		t.Fatalf("shrink: removed=%d rows=%d", stats.Removed, ex.Result().Len())
	}
}

// badIdxMatcher wraps a real matcher but corrupts one tuple index, so
// ApplyRelationUpdate fails validation after the matcher has already run.
type badIdxMatcher struct{ inner her.Matcher }

func (m badIdxMatcher) Match(s *rel.Relation, g *graph.Graph) []her.Match {
	ms := m.inner.Match(s, g)
	if len(ms) > 0 {
		ms[0].TupleIdx = s.Len() + 7
	}
	return ms
}

func TestFailedUpdatesLeaveExtractorUnchanged(t *testing.T) {
	// Regression: ApplyRelationUpdate and UpdateKeywords used to replace
	// e.s / e.matches / e.cfg before validating their inputs, so a failed
	// update left the extractor half-mutated and every later operation ran
	// against torn state. Both must now be transactional.
	w := freshWorld()
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company"}, Seed: 3,
	})
	if _, err := ex.Run(w.products, oracle(w).Match(w.products, w.g)); err != nil {
		t.Fatal(err)
	}
	beforeRows := relationKey(ex.Result())
	beforeMatches := len(ex.Matches())
	beforeAttrs := ex.Scheme().Attrs()

	check := func(op string) {
		t.Helper()
		got := relationKey(ex.Result())
		if len(got) != len(beforeRows) {
			t.Fatalf("%s: result rows changed: %d -> %d", op, len(beforeRows), len(got))
		}
		for i := range got {
			if got[i] != beforeRows[i] {
				t.Fatalf("%s: result content changed at row %d", op, i)
			}
		}
		if len(ex.Matches()) != beforeMatches {
			t.Fatalf("%s: matches changed: %d -> %d", op, beforeMatches, len(ex.Matches()))
		}
		if a := ex.Scheme().Attrs(); len(a) != len(beforeAttrs) {
			t.Fatalf("%s: scheme attrs changed: %v -> %v", op, beforeAttrs, a)
		}
	}

	if _, err := ex.ApplyRelationUpdate(nil, oracle(w)); err == nil {
		t.Fatal("nil relation should fail")
	}
	check("nil relation")
	if _, err := ex.ApplyRelationUpdate(w.products, nil); err == nil {
		t.Fatal("nil matcher should fail")
	}
	check("nil matcher")
	// The hard case: the matcher runs (so naive code would already have
	// stored its output) and only then validation fails on a tuple index
	// outside the new relation.
	if _, err := ex.ApplyRelationUpdate(w.products, badIdxMatcher{oracle(w)}); err == nil {
		t.Fatal("out-of-range tuple index should fail")
	}
	check("bad tuple index")

	if _, err := ex.UpdateKeywords(nil); err == nil {
		t.Fatal("empty keyword set should fail")
	}
	check("empty keywords")
	if _, err := ex.UpdateKeywords([]string{"company", "  "}); err == nil {
		t.Fatal("blank keyword should fail")
	}
	check("blank keyword")

	// The extractor is still fully usable: a good update succeeds and
	// matches a from-scratch extraction.
	if _, err := ex.ApplyRelationUpdate(w.products, oracle(w)); err != nil {
		t.Fatalf("good update after failed ones: %v", err)
	}
	fresh := NewExtractor(w.g, w.models, Config{K: 3, H: 12, Keywords: []string{"company"}, Seed: 3})
	want, err := fresh.ExtractWithScheme(w.products, ex.Scheme(), oracle(w).Match(w.products, w.g))
	if err != nil {
		t.Fatal(err)
	}
	if !sameRelation(ex.Result(), want) {
		t.Fatal("extractor diverged from from-scratch extraction after failed updates")
	}
}
