package core

import (
	"testing"

	"semjoin/internal/graph"
)

func TestPatternMatching(t *testing.T) {
	p := PathPattern{"issues", "^registered_in"}
	path := graph.Path{
		Vertices:   []graph.VertexID{1, 2, 3},
		EdgeLabels: []string{"issues", "^registered_in"},
	}
	if !p.Matches(path) {
		t.Fatal("pattern should match its own path")
	}
	if p.Matches(graph.Path{Vertices: []graph.VertexID{1, 2}, EdgeLabels: []string{"issues"}}) {
		t.Fatal("shorter path must not match")
	}
	if p.Matches(graph.Path{Vertices: []graph.VertexID{1, 2, 3}, EdgeLabels: []string{"issues", "registered_in"}}) {
		t.Fatal("direction mark must be respected")
	}
	if PatternOf(path).Key() != p.Key() {
		t.Fatal("PatternOf should reproduce the pattern")
	}
	back := patternFromKey(p.Key())
	if back.String() != p.String() {
		t.Fatalf("key round-trip: %q vs %q", back, p)
	}
	if patternFromKey("") != nil {
		t.Fatal("empty key should give nil pattern")
	}
}

func TestRExtDiscoverAndExtract(t *testing.T) {
	w := getWorld(t)
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company", "country"}, Seed: 3,
	})
	dg, err := ex.Run(w.products, oracle(w).Match(w.products, w.g))
	if err != nil {
		t.Fatal(err)
	}
	scheme := ex.Scheme()
	attrs := scheme.Attrs()
	if len(attrs) != 2 {
		t.Fatalf("extracted attrs = %v, want 2", attrs)
	}
	hasCompany, hasCountry := false, false
	for _, a := range attrs {
		switch a {
		case "company":
			hasCompany = true
		case "country":
			hasCountry = true
		}
	}
	if !hasCompany || !hasCountry {
		t.Fatalf("attrs = %v, want company and country", attrs)
	}
	if dg.Len() != w.products.Len() {
		t.Fatalf("DG rows = %d, want %d", dg.Len(), w.products.Len())
	}
	// Join back to pids and measure accuracy against ground truth.
	m := ex.MatchRelation()
	joined := natJoin3(t, w.products, m, dg)
	if acc := accuracy(t, joined, "company", w.company); acc < 0.9 {
		t.Fatalf("company accuracy = %.2f, want >= 0.9", acc)
	}
	if acc := accuracy(t, joined, "country", w.country); acc < 0.9 {
		t.Fatalf("country accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestRExtSchemaShape(t *testing.T) {
	w := getWorld(t)
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company"}, Seed: 3,
	})
	if err := ex.Discover(w.products, oracle(w).Match(w.products, w.g)); err != nil {
		t.Fatal(err)
	}
	s := ex.Scheme().Schema
	if s.Key != "vid" || s.Col("vid") != 0 {
		t.Fatalf("RG should be keyed by vid: %v", s)
	}
	if len(s.Attrs) != 2 {
		t.Fatalf("RG arity = %d, want vid + 1 attr", len(s.Attrs))
	}
}

func TestRExtErrors(t *testing.T) {
	w := getWorld(t)
	ex := NewExtractor(w.g, w.models, Config{K: 2, H: 4})
	if err := ex.Discover(w.products, oracle(w).Match(w.products, w.g)); err == nil {
		t.Fatal("no keywords should be an error")
	}
	ex2 := NewExtractor(w.g, w.models, Config{K: 2, H: 4, Keywords: []string{"x"}})
	if err := ex2.Discover(w.products, nil); err == nil {
		t.Fatal("empty match relation should be an error")
	}
}

func TestExtractBeforeDiscoverErrors(t *testing.T) {
	w := getWorld(t)
	ex := NewExtractor(w.g, w.models, Config{Keywords: []string{"x"}})
	if _, err := ex.Extract(); err == nil {
		t.Fatal("expected an error from Extract before Discover")
	}
}

func TestNewExtractorValidation(t *testing.T) {
	w := getWorld(t)
	// A misconfigured constructor reports its problem at first use
	// rather than panicking: Discover, Extract and Run all surface it.
	ex := NewExtractor(w.g, Models{Word: w.models.Word}, Config{Keywords: []string{"x"}})
	if err := ex.Discover(w.products, oracle(w).Match(w.products, w.g)); err == nil {
		t.Fatal("expected an error without a sequence model")
	}
	if _, err := ex.Extract(); err == nil {
		t.Fatal("Extract should surface the constructor error")
	}
	ex2 := NewExtractor(w.g, Models{Seq: w.models.Seq}, Config{Keywords: []string{"x"}})
	if _, err := ex2.Run(w.products, oracle(w).Match(w.products, w.g)); err == nil {
		t.Fatal("expected an error without a word embedder")
	}
}

func TestRndPathBaselineRuns(t *testing.T) {
	w := getWorld(t)
	ex := NewExtractor(w.g, Models{Word: w.models.Word, RandomPaths: true}, Config{
		K: 3, H: 12, Keywords: []string{"company", "country"}, Seed: 5,
	})
	dg, err := ex.Run(w.products, oracle(w).Match(w.products, w.g))
	if err != nil {
		t.Fatal(err)
	}
	if dg.Len() != w.products.Len() {
		t.Fatalf("RndPath rows = %d", dg.Len())
	}
}

func TestGuidedBeatsRandomOnNullRate(t *testing.T) {
	// The LSTM-guided variant should extract at least as many non-null
	// values as a beam-1 random walker (the RndPath baseline shape of
	// Exp-2(b)(3)).
	w := getWorld(t)
	countNulls := func(models Models, beam int) int {
		ex := NewExtractor(w.g, models, Config{
			K: 3, H: 12, Keywords: []string{"company", "country"}, Seed: 5, Beam: beam,
		})
		dg, err := ex.Run(w.products, oracle(w).Match(w.products, w.g))
		if err != nil {
			t.Fatal(err)
		}
		nulls := 0
		for _, tp := range dg.Tuples {
			for _, v := range tp[1:] {
				if v.IsNull() {
					nulls++
				}
			}
		}
		return nulls
	}
	guided := countNulls(w.models, 2)
	random := countNulls(Models{Word: w.models.Word, RandomPaths: true}, 1)
	if guided > random {
		t.Fatalf("guided nulls %d > random nulls %d", guided, random)
	}
}

func TestAcceptCallbackFilters(t *testing.T) {
	w := getWorld(t)
	var offered []string
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company", "country"}, Seed: 3,
		Accept: func(attr string, patterns []PathPattern, sample []WSample) bool {
			offered = append(offered, attr)
			if len(patterns) == 0 || len(sample) == 0 {
				t.Error("Accept must see patterns and samples")
			}
			return attr != "country" // user vetoes country
		},
	})
	if err := ex.Discover(w.products, oracle(w).Match(w.products, w.g)); err != nil {
		t.Fatal(err)
	}
	for _, a := range ex.Scheme().Attrs() {
		if a == "country" {
			t.Fatal("vetoed attribute still selected")
		}
	}
	if len(offered) == 0 {
		t.Fatal("Accept was never consulted")
	}
}

func TestPathCacheReuse(t *testing.T) {
	w := getWorld(t)
	ex := NewExtractor(w.g, w.models, Config{
		K: 3, H: 12, Keywords: []string{"company"}, Seed: 3,
	})
	matches := oracle(w).Match(w.products, w.g)
	if err := ex.Discover(w.products, matches); err != nil {
		t.Fatal(err)
	}
	cached := len(ex.pathCache)
	if _, err := ex.Extract(); err != nil {
		t.Fatal(err)
	}
	if len(ex.pathCache) != cached {
		t.Fatalf("Extract should reuse discovery paths: %d -> %d", cached, len(ex.pathCache))
	}
}

func TestSelectPathsRespectsBounds(t *testing.T) {
	w := getWorld(t)
	for _, k := range []int{1, 2, 3} {
		ex := NewExtractor(w.g, w.models, Config{K: k, H: 8, Keywords: []string{"company"}, Seed: 3})
		for pid, v := range w.truth {
			for _, p := range ex.selectPaths(v) {
				if p.Len() > k {
					t.Fatalf("path longer than k=%d for %s: %v", k, pid, p)
				}
				if p.Start() != v {
					t.Fatal("path must start at entity")
				}
				seen := map[graph.VertexID]bool{}
				for _, u := range p.Vertices {
					if seen[u] {
						t.Fatal("selected path is not simple")
					}
					seen[u] = true
				}
			}
			break // one entity suffices per k
		}
	}
}

func TestSelectPathsMaxPathsPerEntityCap(t *testing.T) {
	// A hub vertex with huge degree must not explode.
	g := graph.New()
	hub := g.AddVertex("hub", "h")
	for i := 0; i < 500; i++ {
		v := g.AddVertex("leaf", "l")
		g.AddEdge(hub, "e", v)
	}
	w := getWorld(t)
	ex := NewExtractor(g, Models{Word: w.models.Word, RandomPaths: true},
		Config{K: 2, H: 4, Keywords: []string{"x"}, MaxPathsPerEntity: 10})
	paths := ex.selectPaths(hub)
	if len(paths) > 20 { // 10 initial edges, ≤2 prefixes each at k=2
		t.Fatalf("cap not enforced: %d paths", len(paths))
	}
}

func TestTypeSentences(t *testing.T) {
	w := getWorld(t)
	sents := TypeSentences(w.g)
	if len(sents) == 0 {
		t.Fatal("typed graph should yield type sentences")
	}
	found := false
	for _, s := range sents {
		if len(s) != 2 {
			t.Fatalf("sentence shape: %v", s)
		}
		if s[0] == "UK" && s[1] == "country" {
			found = true
		}
	}
	if !found {
		t.Fatal("missing UK-country sentence")
	}
}

func TestNoiseFracDegradesGracefully(t *testing.T) {
	// With moderate label noise the majority-vote refinement should keep
	// extraction usable (Fig 5(f) shape: robust up to ~20%).
	w := getWorld(t)
	run := func(noise float64) float64 {
		ex := NewExtractor(w.g, w.models, Config{
			K: 3, H: 12, Keywords: []string{"company", "country"}, Seed: 3,
			NoiseFrac: noise,
		})
		dg, err := ex.Run(w.products, oracle(w).Match(w.products, w.g))
		if err != nil {
			t.Fatal(err)
		}
		m := ex.MatchRelation()
		joined := natJoin3(t, w.products, m, dg)
		return accuracy(t, joined, "company", w.company)
	}
	clean := run(0)
	noisy := run(0.1)
	if clean < 0.9 {
		t.Fatalf("clean accuracy = %.2f", clean)
	}
	if noisy < clean-0.35 {
		t.Fatalf("10%% noise collapsed accuracy: %.2f -> %.2f", clean, noisy)
	}
}
