package core

import (
	"strings"
	"testing"

	"semjoin/internal/graph"
	"semjoin/internal/rel"
)

func TestEnrichmentJoinBaseline(t *testing.T) {
	w := getWorld(t)
	out, err := EnrichmentJoin(w.products, w.g, w.models, oracle(w),
		[]string{"company", "country"}, Config{K: 3, H: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != w.products.Len() {
		t.Fatalf("enriched rows = %d, want %d", out.Len(), w.products.Len())
	}
	// Output schema: R's attributes + vid + extracted attributes.
	for _, name := range []string{"pid", "name", "category", "vid", "company", "country"} {
		if !out.Schema.Has(name) {
			t.Fatalf("missing attribute %q in %v", name, out.Schema)
		}
	}
	if acc := accuracy(t, out, "company", w.company); acc < 0.9 {
		t.Fatalf("company accuracy = %.2f", acc)
	}
	if acc := accuracy(t, out, "country", w.country); acc < 0.9 {
		t.Fatalf("country accuracy = %.2f", acc)
	}
}

func TestEnrichmentJoinSelectionThenJoin(t *testing.T) {
	// σpid=fd01 product ⋈ G — the paper's Q1 shape.
	w := getWorld(t)
	sel := rel.Select(w.products, func(tp rel.Tuple) bool {
		return w.products.Get(tp, "pid").Equal(rel.S("fd01"))
	})
	out, err := EnrichmentJoin(sel, w.g, w.models, oracle(w),
		[]string{"company", "country"}, Config{K: 3, H: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows = %d, want 1", out.Len())
	}
	if got := out.Get(out.Tuples[0], "company").Str(); got != w.company["fd01"] {
		t.Fatalf("company = %q, want %q", got, w.company["fd01"])
	}
}

func TestEnrichmentJoinNoMatches(t *testing.T) {
	w := getWorld(t)
	empty := rel.NewRelation(w.products.Schema)
	empty.InsertVals(rel.S("nope"), rel.S("missing"), rel.S("Funds"))
	out, err := EnrichmentJoin(empty, w.g, w.models, oracle(w),
		[]string{"company"}, Config{K: 2, H: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatal("unmatched tuples must not join")
	}
}

func TestEnrichmentJoinUnkeyedSynthesisesRowIDs(t *testing.T) {
	// An unkeyed intermediate result (Example 10's shape) still joins:
	// rows get synthetic ids and the oracle aligns by any matching value.
	w := getWorld(t)
	unkeyed := rel.NewRelation(rel.NewSchema("u", "",
		rel.Attribute{Name: "x"}, rel.Attribute{Name: "pid2"}))
	unkeyed.InsertVals(rel.S("noise"), rel.S("fd01"))
	out, err := EnrichmentJoin(unkeyed, w.g, w.models, oracle(w), []string{"company"},
		Config{K: 3, H: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows = %d, want 1", out.Len())
	}
	if got := out.Get(out.Tuples[0], "company").Str(); got != w.company["fd01"] {
		t.Fatalf("company = %q, want %q", got, w.company["fd01"])
	}
}

func TestLinkJoin(t *testing.T) {
	// Products 2 hops from fd00 share its issuer (p1 ←issues─ c ─issues→
	// p2) or its category (p1 ─category→ cat ←category─ p2).
	w := getWorld(t)
	a := rel.Select(w.products, func(tp rel.Tuple) bool {
		return w.products.Get(tp, "pid").Equal(rel.S("fd00"))
	})
	b := rel.Rename(w.products, "product2")
	out, err := LinkJoin(a, b, w.g, oracle(w), 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("expected 2-hop neighbours")
	}
	category0 := w.products.Get(w.products.Tuples[0], "category").Str()
	linked := map[string]bool{}
	for _, tp := range out.Tuples {
		p2 := out.Get(tp, "product2.pid").Str()
		linked[p2] = true
		sameCompany := w.company[p2] == w.company["fd00"]
		sameCategory := out.Get(tp, "product2.category").Str() == category0
		if !sameCompany && !sameCategory {
			t.Fatalf("2-hop link to unrelated product: %s", p2)
		}
	}
	// Every same-company product must be found.
	for pid, c := range w.company {
		if c == w.company["fd00"] && !linked[pid] {
			t.Fatalf("missing co-issued product %s", pid)
		}
	}
	// k=1: no product pairs are adjacent.
	if got, err := LinkJoin(a, b, w.g, oracle(w), 1); err != nil || got.Len() != 1 {
		// Only the self pair (fd00 with itself at distance 0).
		t.Fatalf("k=1 rows = %d, want 1 (self)", got.Len())
	}
}

func TestLinkJoinSelfRenaming(t *testing.T) {
	w := getWorld(t)
	a := rel.Select(w.products, func(tp rel.Tuple) bool {
		return w.products.Get(tp, "pid").Equal(rel.S("fd00"))
	})
	out, err := LinkJoin(a, w.products, w.g, oracle(w), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Same base name on both sides must still produce distinct qualified
	// attribute names.
	seen := map[string]bool{}
	for _, attr := range out.Schema.Attrs {
		if seen[attr.Name] {
			t.Fatalf("duplicate attribute %q", attr.Name)
		}
		seen[attr.Name] = true
	}
}

func buildMaterializedWorld(t *testing.T, w *world) *Materialized {
	t.Helper()
	m, err := BuildMaterialized(w.g, w.models, map[string]BaseSpec{
		"product": {D: w.products, AR: []string{"company", "country"}, Matcher: oracle(w)},
	}, Config{K: 3, H: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStaticEnrichMatchesBaseline(t *testing.T) {
	w := getWorld(t)
	m := buildMaterializedWorld(t, w)

	static, err := m.StaticEnrich("product", w.products, []string{"company", "country"})
	if err != nil {
		t.Fatal(err)
	}
	if static.Len() != w.products.Len() {
		t.Fatalf("static rows = %d", static.Len())
	}
	if acc := accuracy(t, static, "company", w.company); acc < 0.9 {
		t.Fatalf("static company accuracy = %.2f", acc)
	}
	// Subset of keywords: project only what was asked.
	one, err := m.StaticEnrich("product", w.products, []string{"company"})
	if err != nil {
		t.Fatal(err)
	}
	if one.Schema.Has("country") {
		t.Fatal("unrequested attribute leaked into result")
	}
	// Selection pushed into the static join.
	sel := rel.Select(w.products, func(tp rel.Tuple) bool {
		return w.products.Get(tp, "pid").Equal(rel.S("fd02"))
	})
	sub, err := m.StaticEnrich("product", sel, []string{"company"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 1 || sub.Get(sub.Tuples[0], "company").Str() != w.company["fd02"] {
		t.Fatalf("selected static join wrong: %v", sub.Tuples)
	}
}

func TestStaticEnrichRejectsUncoveredKeywords(t *testing.T) {
	w := getWorld(t)
	m := buildMaterializedWorld(t, w)
	if _, err := m.StaticEnrich("product", w.products, []string{"ceo"}); err == nil {
		t.Fatal("keywords outside AR must be rejected (not well-behaved)")
	}
	if m.View().WellBehavedKeywords("product", []string{"company"}) != true {
		t.Fatal("company ⊆ AR")
	}
	if m.View().WellBehavedKeywords("nosuch", []string{"company"}) {
		t.Fatal("unknown base cannot be well-behaved")
	}
}

func TestStaticLinkAndGLCache(t *testing.T) {
	w := getWorld(t)
	m := buildMaterializedWorld(t, w)
	a := rel.Select(w.products, func(tp rel.Tuple) bool {
		return w.products.Get(tp, "pid").Equal(rel.S("fd00"))
	})
	b := rel.Rename(w.products, "product2")
	key := LinkCacheKey("product", "pid=fd00", "product", "true", 2)

	first, err := m.StaticLink("product", a, "product", b, 2, key)
	if err != nil {
		t.Fatal(err)
	}
	rels, tuples := m.GLCacheSize()
	if rels != 1 || tuples == 0 {
		t.Fatalf("gL cache not populated: %d rels %d tuples", rels, tuples)
	}
	second, err := m.StaticLink("product", a, "product", b, 2, key)
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != second.Len() {
		t.Fatalf("cache hit changed result: %d vs %d", first.Len(), second.Len())
	}
	// Cached result must coincide with the online link join.
	online, err := LinkJoin(a, b, w.g, oracle(w), 2)
	if err != nil {
		t.Fatal(err)
	}
	if online.Len() != second.Len() {
		t.Fatalf("gL answer diverges from online: %d vs %d", online.Len(), second.Len())
	}
}

func TestTypeExtractionAndProfile(t *testing.T) {
	w := getWorld(t)
	te, err := ExtractForType(w.g, w.models, "product", []string{"company", "country"},
		Config{K: 3, H: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if te.Relation.Len() != 30 {
		t.Fatalf("gτ rows = %d, want 30", te.Relation.Len())
	}
	if !strings.HasPrefix(te.Relation.Schema.Name, "g_") {
		t.Fatalf("gτ name = %q", te.Relation.Schema.Name)
	}
	// Values should line up with ground truth through the vertex ids.
	vidCol := te.Relation.Schema.Col("vid")
	companyCol := te.Relation.Schema.Col("company")
	if vidCol < 0 || companyCol < 0 {
		t.Fatalf("schema = %v", te.Relation.Schema)
	}
	byVid := map[graph.VertexID]string{}
	for pid, v := range w.truth {
		byVid[v] = w.company[pid]
	}
	hit := 0
	for _, tp := range te.Relation.Tuples {
		if tp[companyCol].Str() == byVid[graph.VertexID(tp[vidCol].Int())] {
			hit++
		}
	}
	if frac := float64(hit) / 30; frac < 0.9 {
		t.Fatalf("type extraction accuracy = %.2f", frac)
	}

	profiles := ProfileGraph(w.g, w.models, map[string][]string{
		"product": {"company", "country"},
		"company": {"country"},
	}, 2, Config{K: 3, H: 12, Seed: 3})
	if len(profiles) != 2 {
		t.Fatalf("profiles = %d", len(profiles))
	}
}

func TestHeuristicJoin(t *testing.T) {
	w := getWorld(t)
	profiles := ProfileGraph(w.g, w.models, map[string][]string{
		"product": {"company", "country"},
	}, 2, Config{K: 3, H: 12, Seed: 3})
	h := NewHeuristicJoiner(profiles)

	// A non-well-behaved query result: joined attributes from product
	// plus a computed column (no single base tuple id requirement here).
	q, err2 := rel.Project(w.products, "pid", "name", "category")
	if err2 != nil {
		t.Fatal(err2)
	}
	out, typ, err := h.Enrich(q, []string{"company"})
	if err != nil {
		t.Fatal(err)
	}
	if typ != "product" {
		t.Fatalf("chose type %q", typ)
	}
	if !out.Schema.Has("company") {
		t.Fatalf("no company attribute: %v", out.Schema)
	}
	if acc := accuracy(t, out, "company", w.company); acc < 0.75 {
		t.Fatalf("heuristic accuracy = %.2f", acc)
	}
}

func TestHeuristicJoinNoProfiles(t *testing.T) {
	h := NewHeuristicJoiner(nil)
	w := getWorld(t)
	if _, _, err := h.Enrich(w.products, []string{"company"}); err == nil {
		t.Fatal("expected error without profiles")
	}
}

func TestChooseType(t *testing.T) {
	w := getWorld(t)
	profiles := ProfileGraph(w.g, w.models, map[string][]string{
		"product": {"company", "country"},
		"company": {"country"},
	}, 2, Config{K: 3, H: 12, Seed: 3})
	h := NewHeuristicJoiner(profiles)
	typ, score := h.ChooseType(w.products.Schema, []string{"company"})
	if typ != "product" || score <= 0 {
		t.Fatalf("ChooseType = %q (%d)", typ, score)
	}
}

func TestNormalizeAttr(t *testing.T) {
	if NormalizeAttr("Company_Name") != "companyname" {
		t.Fatal("normalization wrong")
	}
	if NormalizeAttr("T1.loc") != "t1loc" {
		t.Fatal("qualified names keep their letters only")
	}
}

func TestFrequentLabels(t *testing.T) {
	w := getWorld(t)
	fl := FrequentLabels(w.g, 3)
	if len(fl["company"]) == 0 || len(fl["country"]) == 0 {
		t.Fatalf("FrequentLabels missing types: %v", fl)
	}
	if len(fl["company"]) > 3 {
		t.Fatal("topN not respected")
	}
	// "corp" is the most frequent company-label token.
	if fl["company"][0] != "corp" {
		t.Fatalf("company tokens = %v", fl["company"])
	}
	// Edge labels under the "" key.
	found := false
	for _, l := range fl[""] {
		if l == "issues" {
			found = true
		}
	}
	if !found {
		t.Fatalf("edge labels = %v", fl[""])
	}
}

// natJoin3 is the test shorthand for the paper's three-way reduction
// S ⋈ f ⋈ h, failing the test on a join error.
func natJoin3(t *testing.T, s, f, h *rel.Relation) *rel.Relation {
	t.Helper()
	sm, err := rel.NaturalJoin(s, f)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rel.NaturalJoin(sm, h)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
