// Incremental: IncExt (§III-B) maintaining an extracted relation under a
// stream of graph updates. We extract once with RExt, then apply batches
// of ΔG — an edge rewire and random churn — and show that (a) affected
// entities are re-extracted while the rest of the relation is reused,
// and (b) a keyword update re-ranks the discovered pattern clusters
// without re-clustering.
//
//	go run ./examples/incremental
package main

import (
	"fmt"
	"log"
	"sort"

	"semjoin"
)

func main() {
	c := semjoin.GenerateCollection("MovKB", semjoin.DatasetConfig{Entities: 40, Seed: 7})
	g := c.G
	movies, _ := c.Drop("movie", []string{"studio", "country", "language"})
	models := semjoin.TrainModels(g, 6, 7)
	matcher := c.Oracle("movie")

	ex := semjoin.NewExtractor(g, models, semjoin.RExtConfig{
		K: 3, H: 30, Keywords: []string{"studio", "country"}, Seed: 7,
	})
	dg, err := ex.Run(movies, matcher.Match(movies, g))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial extraction: %s, %d rows\n", dg.Schema, dg.Len())
	printSample(ex, 4)

	// Update 1: a studio relocates to another country.
	studio := semjoin.FindVertex(g, "Acme Corp")
	oldC := semjoin.FindVertex(g, "UK")
	newC := semjoin.FindVertex(g, "Japan")
	if newC == semjoin.NoVertex {
		newC = g.AddVertex("Japan", "country")
	}
	batch := semjoin.GraphBatch{
		{Op: semjoin.DeleteEdge, Edge: semjoin.Edge{From: studio, Label: "based_in", To: oldC}},
		{Op: semjoin.InsertEdge, Edge: semjoin.Edge{From: studio, Label: "based_in", To: newC}},
	}
	stats, err := ex.ApplyGraphUpdate(batch, matcher)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nΔG #1 (Acme Corp relocates UK→Japan): touched %d vertices, dropped %d rows\n", stats.Touched, stats.Removed)
	printWalks(stats)
	printSample(ex, 4)

	// Update 2: random churn — equal insertions and deletions.
	churn := semjoin.RandomGraphBatch(g, 13, 10)
	stats, err = ex.ApplyGraphUpdate(churn, matcher)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nΔG #2 (random churn of 10 edges):\n")
	printWalks(stats)

	// Keyword update: the user's interest shifts to language — only the
	// ranking/selection step reruns; retained attributes copy their
	// existing column.
	dg2, err := ex.UpdateKeywords([]string{"studio", "language"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nkeyword update {studio, country} → {studio, language}: schema now %s\n", dg2.Schema)
	printSample(ex, 4)
}

// printWalks shows how little of the k-hop ball an update costs: the
// candidates are the matched entities within k hops of ΔG, and only
// those whose cached walk read a touched vertex are walked again.
func printWalks(st semjoin.IncStats) {
	fmt.Printf("  %d candidates within k hops: %d re-walked, %d kept; %d entities re-extracted\n",
		st.Candidates, st.Reselected, st.Candidates-st.Reselected, st.Affected)
}

func printSample(ex *semjoin.Extractor, n int) {
	dg := ex.Result()
	rows := append([]semjoin.Tuple(nil), dg.Tuples...)
	sort.Slice(rows, func(i, j int) bool { return rows[i][0].Int() < rows[j][0].Int() })
	sample := semjoin.NewRelation(dg.Schema)
	for i := 0; i < n && i < len(rows); i++ {
		sample.Insert(rows[i])
	}
	fmt.Print(sample)
}
