package core

import (
	"fmt"
	"testing"

	"semjoin/internal/graph"
	"semjoin/internal/mat"
	"semjoin/internal/rel"
)

// incBenchWorld is the fixture's shape at ten times the size and a
// tenth of the density — 300 products over 60 companies, 20 categories
// and 12 countries — so that a small ΔG leaves most of the graph more
// than k hops away, as it does in the served collections. It reuses the
// fixture's trained models: the edge labels are the same, and vertex
// labels are out of vocabulary for Mρ either way.
func incBenchWorld() *world {
	models := buildWorld().models
	g := graph.New()
	add := func(n int, typ, format string) []graph.VertexID {
		ids := make([]graph.VertexID, n)
		for i := range ids {
			ids[i] = g.AddVertex(fmt.Sprintf(format, i), typ)
		}
		return ids
	}
	countries := add(12, "country", "Country %02d")
	companies := add(60, "company", "Firm %02d Corp")
	categories := add(20, "category", "Class %02d")
	for i, c := range companies {
		g.AddEdge(c, "registered_in", countries[i%len(countries)])
	}
	products := rel.NewRelation(rel.NewSchema("product", "pid",
		rel.Attribute{Name: "pid", Type: rel.KindString},
		rel.Attribute{Name: "name", Type: rel.KindString},
	))
	truth := map[string]graph.VertexID{}
	for i := 0; i < 300; i++ {
		pid, name := fmt.Sprintf("fd%03d", i), fmt.Sprintf("prod %03d", i)
		v := g.AddVertex(name, "product")
		g.AddEdge(companies[i%len(companies)], "issues", v)
		g.AddEdge(v, "category", categories[i%len(categories)])
		products.InsertVals(rel.S(pid), rel.S(name))
		truth[pid] = v
	}
	return &world{g: g, products: products, truth: truth, models: models}
}

// incTraffic is the ΔG traffic the harness sends: edges4 is
// mixed_ingest's 4-update RandomBatch, mixed16 ingest_heavy's 16-update
// RandomMixedBatch.
var incTraffic = []struct {
	name string
	draw func(*graph.Graph, *mat.RNG) graph.Batch
}{
	{"edges4", func(g *graph.Graph, r *mat.RNG) graph.Batch { return graph.RandomBatch(g, r, 4) }},
	{"mixed16", func(g *graph.Graph, r *mat.RNG) graph.Batch { return graph.RandomMixedBatch(g, r, 16) }},
}

// BenchmarkIncExtApply is one Extractor.ApplyGraphUpdate per op on
// incTraffic. Beside ns/op it reports how many of the candidates in the
// k-hop ball had their paths selected again.
func BenchmarkIncExtApply(b *testing.B) {
	for _, bc := range incTraffic {
		b.Run(bc.name, func(b *testing.B) {
			w := incBenchWorld()
			ex := runExtractor(b, w, walkCfg)
			var candidates, rewalks int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				delta := bc.draw(w.g, mat.NewRNG(uint64(1000+i)))
				b.StartTimer()
				st, err := ex.ApplyGraphUpdate(delta, oracle(w))
				if err != nil {
					b.Fatal(err)
				}
				candidates += st.Candidates
				rewalks += st.Reselected
			}
			b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
			b.ReportMetric(float64(rewalks)/float64(b.N), "re-walks/op")
		})
	}
}
