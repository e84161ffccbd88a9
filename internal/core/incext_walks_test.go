package core

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"testing"

	"semjoin/internal/graph"
	"semjoin/internal/mat"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

var walkCfg = Config{K: 3, H: 12, Keywords: []string{"company", "country"}, Seed: 3}

func runExtractor(t testing.TB, w *world, cfg Config) *Extractor {
	t.Helper()
	ex := NewExtractor(w.g, w.models, cfg)
	if _, err := ex.Run(w.products, oracle(w).Match(w.products, w.g)); err != nil {
		t.Fatal(err)
	}
	return ex
}

// checkExact is the whole exactness claim at one point in time: what is
// cached is what selectPaths would select now, and h(D,G) is what
// Algorithm 1 yields from scratch under the same scheme.
func checkExact(t testing.TB, w *world, ex *Extractor, d *rel.Relation, when string) {
	t.Helper()
	if err := ex.CheckCachedWalks(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	checkRows(t, w, ex, d, when)
}

func checkRows(t testing.TB, w *world, ex *Extractor, d *rel.Relation, when string) {
	t.Helper()
	fresh := NewExtractor(w.g, w.models, ex.cfg)
	want, err := fresh.ExtractWithScheme(d, ex.Scheme(), oracle(w).Match(d, w.g))
	if err != nil {
		t.Fatal(err)
	}
	if !sameRelation(ex.Result(), want) {
		t.Fatalf("%s: IncExt diverged from a from-scratch extraction", when)
	}
}

// TestIncExtCachedWalksEqualFresh pins the read-set test where a wrong
// answer would hide: after every ΔG of a seeded stream, every walk left
// in the path cache — of matched vertices, whose rows were kept, and of
// unmatched ones, which only a later ΔD would read — equals a fresh
// selectPaths on the current graph. Half of the products are unmatched
// for the length of the stream and matched again at its end.
func TestIncExtCachedWalksEqualFresh(t *testing.T) {
	type run struct {
		name  string
		world func() *world
		draw  func(*graph.Graph, *mat.RNG) graph.Batch
	}
	var runs []run
	for _, tr := range incTraffic {
		runs = append(runs,
			run{tr.name + "/fixture", freshWorld, tr.draw},
			run{tr.name + "/sparse", incBenchWorld, tr.draw})
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.world()
			ex := runExtractor(t, w, walkCfg)
			half := rel.NewRelation(w.products.Schema)
			for i, tp := range w.products.Tuples {
				if i%2 == 0 {
					half.Insert(tp)
				}
			}
			if _, err := ex.ApplyRelationUpdate(half, oracle(w)); err != nil {
				t.Fatal(err)
			}
			var total IncStats
			for i := 0; i < 24; i++ {
				delta := tc.draw(w.g, mat.NewRNG(uint64(7000+i)))
				st, err := ex.ApplyGraphUpdate(delta, oracle(w))
				if err != nil {
					t.Fatal(err)
				}
				total.Candidates += st.Candidates
				total.Reselected += st.Reselected
				if err := ex.CheckCachedWalks(); err != nil {
					t.Fatalf("after batch %d: %v", i, err)
				}
				if i%8 == 7 {
					checkRows(t, w, ex, half, fmt.Sprintf("after batch %d", i))
				}
			}
			if kept := total.Candidates - total.Reselected; kept == 0 || total.Reselected == 0 {
				t.Fatalf("stream exercised one side only: %d candidates, %d reselected", total.Candidates, total.Reselected)
			}
			if _, err := ex.ApplyRelationUpdate(w.products, oracle(w)); err != nil {
				t.Fatal(err)
			}
			checkExact(t, w, ex, w.products, "after re-matching")
		})
	}
}

// walkSets splits the vertices on v's cached paths into those the walk
// read (index < K, and v) and those it only arrived at (index K).
func walkSets(ex *Extractor, v graph.VertexID) (read, tail map[graph.VertexID]bool) {
	read, tail = map[graph.VertexID]bool{v: true}, map[graph.VertexID]bool{}
	for _, p := range ex.pathCache[v] {
		for i, u := range p.Vertices {
			if i < ex.cfg.K {
				read[u] = true
			} else {
				tail[u] = true
			}
		}
	}
	for u := range read {
		delete(tail, u)
	}
	return read, tail
}

// pick returns the lowest vertex of set other than not.
func pick(set map[graph.VertexID]bool, not graph.VertexID) graph.VertexID {
	best := graph.NoVertex
	for u := range set {
		if u != not && (best == graph.NoVertex || u < best) {
			best = u
		}
	}
	return best
}

// hang is a ΔG that changes u's adjacency and nothing else's: a new
// vertex wired to u.
func hang(g *graph.Graph, u graph.VertexID) graph.Batch {
	return graph.Batch{
		{Op: graph.InsertVertex, Label: "note", Type: "note"},
		{Op: graph.InsertEdge, Edge: graph.Edge{From: u, Label: "issues", To: graph.VertexID(g.MaxVertexID())}},
	}
}

// TestIncExtReadSetEdges walks the boundary of "ΔG touched something the
// cached walk read". K is 2 so that the fixture has vertices a walk
// arrives at without reading: product → company → {sibling, country}.
func TestIncExtReadSetEdges(t *testing.T) {
	cfg := walkCfg
	cfg.K = 2
	for _, tc := range []struct {
		name string
		// delta builds the update around subject v; rewalk says whether
		// v's walk must be selected again.
		delta  func(t *testing.T, w *world, ex *Extractor, v graph.VertexID) graph.Batch
		rewalk bool
	}{
		{"touched only at index K", func(t *testing.T, w *world, ex *Extractor, v graph.VertexID) graph.Batch {
			_, tail := walkSets(ex, v)
			return hang(w.g, pick(tail, v))
		}, false},
		{"edge inserted at an interior vertex", func(t *testing.T, w *world, ex *Extractor, v graph.VertexID) graph.Batch {
			read, _ := walkSets(ex, v)
			return hang(w.g, pick(read, v))
		}, true},
		{"vertex at index K deleted", func(t *testing.T, w *world, ex *Extractor, v graph.VertexID) graph.Batch {
			_, tail := walkSets(ex, v)
			return graph.Batch{{Op: graph.DeleteVertex, Edge: graph.Edge{From: pick(tail, v)}}}
		}, true},
		{"two edges of one path", func(t *testing.T, w *world, ex *Extractor, v graph.VertexID) graph.Batch {
			for _, p := range ex.pathCache[v] {
				if p.Len() == 2 && p.EdgeLabels[0] == "^issues" && p.EdgeLabels[1] == "registered_in" {
					return graph.Batch{
						{Op: graph.DeleteEdge, Edge: graph.Edge{From: p.Vertices[1], Label: "issues", To: v}},
						{Op: graph.DeleteEdge, Edge: graph.Edge{From: p.Vertices[1], Label: "registered_in", To: p.Vertices[2]}},
					}
				}
			}
			t.Fatal("no product–company–country path cached")
			return nil
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := freshWorld()
			ex := runExtractor(t, w, cfg)
			v := w.truth["fd05"]
			if _, tail := walkSets(ex, v); len(tail) == 0 {
				t.Fatal("fixture walk has no vertex at index K only")
			}
			before := &ex.pathCache[v][0]
			st, err := ex.ApplyGraphUpdate(tc.delta(t, w, ex, v), oracle(w))
			if err != nil {
				t.Fatal(err)
			}
			if st.Candidates == 0 {
				t.Fatal("subject is within k hops of the update and must be a candidate")
			}
			if got := before != &ex.pathCache[v][0]; got != tc.rewalk {
				t.Fatalf("re-walked = %v, want %v (stats %+v)", got, tc.rewalk, st)
			}
			checkExact(t, w, ex, w.products, "after the update")
		})
	}

	t.Run("first edge of an isolated entity", func(t *testing.T) {
		w := freshWorld()
		ex := runExtractor(t, w, cfg)
		lone := graph.Batch{{Op: graph.InsertVertex, Label: "prod 99", Type: "product"}}
		w.products.InsertVals(rel.S("fd99"), rel.S("prod 99"), rel.S("Funds"))
		w.truth["fd99"] = graph.VertexID(w.g.MaxVertexID())
		if _, err := ex.ApplyGraphUpdate(lone, oracle(w)); err != nil {
			t.Fatal(err)
		}
		v := w.truth["fd99"]
		if paths, ok := ex.pathCache[v]; !ok || len(paths) != 0 {
			t.Fatalf("isolated entity should cache an empty walk, got %v %v", paths, ok)
		}
		st, err := ex.ApplyGraphUpdate(graph.Batch{{Op: graph.InsertEdge,
			Edge: graph.Edge{From: findVertex(w.g, "Acme Corp"), Label: "issues", To: v}}}, oracle(w))
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.pathCache[v]) == 0 {
			t.Fatalf("entity's first edge did not re-select its paths (stats %+v)", st)
		}
		checkExact(t, w, ex, w.products, "after the first edge")
	})

	t.Run("empty cache after LoadBase", func(t *testing.T) {
		w, base := durableWorld(t)
		var buf bytes.Buffer
		if err := SaveBase(&buf, base); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadBase(&buf, w.products, w.g, w.models, oracle(w), Config{H: 12, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		ex := loaded.Extractor
		// Two updates with the same candidates: nothing is cached at the
		// first, so every candidate is walked; the second is K hops away
		// from them and what the first walked is kept.
		note := graph.VertexID(w.g.MaxVertexID())
		first, err := ex.ApplyGraphUpdate(hang(w.g, findVertex(w.g, "UK")), oracle(w))
		if err != nil {
			t.Fatal(err)
		}
		if first.Candidates == 0 || first.Reselected != first.Candidates {
			t.Fatalf("with no cached walk every candidate is re-walked: %+v", first)
		}
		second, err := ex.ApplyGraphUpdate(hang(w.g, note), oracle(w))
		if err != nil {
			t.Fatal(err)
		}
		if second.Candidates != first.Candidates || second.Reselected != 0 {
			t.Fatalf("walks cached by the first update should be kept: first %+v, second %+v", first, second)
		}
		checkExact(t, w, ex, w.products, "after recovery")
	})
}

// TestIncExtGraphUpdateIsObservable pins what the write path reports of
// itself: three phases in order on the ctx trace, the candidate /
// reselected / kept split in the stats, on the extractor's registry and
// on the Debug line, with Affected still the re-extracted count.
func TestIncExtGraphUpdateIsObservable(t *testing.T) {
	w := freshWorld()
	cfg := walkCfg
	cfg.K = 2
	cfg.Obs = obs.NewRegistry()
	ex := runExtractor(t, w, cfg)

	trace := obs.NewTracer(1, 0).Start("ingest", 1)
	defer trace.Finish("ok")
	var logged bytes.Buffer
	ctx := obs.ContextWithTrace(context.Background(), trace)
	ctx = obs.ContextWithLogger(ctx, obs.NewLogger(&logged, slog.LevelDebug))
	// An entity's own adjacency changes: its siblings and category
	// mates are within k hops but reach it only at index K.
	st, err := ex.ApplyGraphUpdateContext(ctx, hang(w.g, w.truth["fd05"]), oracle(w))
	if err != nil {
		t.Fatal(err)
	}
	kept := st.Candidates - st.Reselected
	if st.Reselected != 1 || kept == 0 || st.Affected != 1 {
		t.Fatalf("update should re-walk its entity and keep the other candidates: %+v", st)
	}
	var phases []string
	for _, p := range trace.Phases() {
		phases = append(phases, p.Name)
	}
	if want := []string{"incext_candidates", "incext_reselect", "incext_commit"}; !slices.Equal(phases, want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	counters := cfg.Obs.CounterValues()
	for _, c := range []struct {
		counter, field string
		want           int
	}{
		{"core_incext_candidates_total", "candidates", st.Candidates},
		{"core_incext_reselected_total", "reselected", st.Reselected},
		{"core_incext_walks_kept_total", "kept", kept},
	} {
		if counters[c.counter] != int64(c.want) {
			t.Errorf("%s = %d, want %d", c.counter, counters[c.counter], c.want)
		}
		if field := fmt.Sprintf("%q:%d", c.field, c.want); !strings.Contains(logged.String(), field) {
			t.Errorf("Debug line lacks %s: %s", field, logged.String())
		}
	}
}
