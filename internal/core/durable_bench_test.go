package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"semjoin/internal/dataset"
	"semjoin/internal/graph"
	"semjoin/internal/mat"
	"semjoin/internal/rel"
	"semjoin/internal/wal"
)

// BenchmarkDurableGraphUpdate is the full durable write path on the
// real filesystem: encode, WAL append (group commit), incremental
// re-extraction. Each op is one 4-update batch.
func BenchmarkDurableGraphUpdate(b *testing.B) {
	w, base := durableWorld(b)
	st, err := OpenDurable(context.Background(), b.TempDir(), durableBoot(w, base),
		DurableOptions{Policy: wal.SyncBatch, FS: wal.OSFS{}})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta := graph.RandomMixedBatch(st.Graph(), mat.NewRNG(uint64(1000+i)), 4)
		if _, err := st.ApplyGraphUpdate(delta); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(4*b.N)/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkVersionPublish is what a store pays per update to let its
// readers go unlocked, over the benchmark's collection at its scale —
// Drugs, 300 entities. "publish" is the whole of it: the extractor's
// commit point (install: a new state with its tid index and f(D,G)
// relation) and the publication of the next version (a graph snapshot
// and the swap); the budget is 0.3 ms per op. "snapshot" is the graph's
// share, and "clone" what the same isolation would cost by deep copy.
// Each op follows an untimed 16-update mixed batch, so a snapshot shares
// a graph that has just been written, as in service.
func BenchmarkVersionPublish(b *testing.B) {
	c := dataset.ByName("Drugs")(dataset.Config{Entities: 300, Seed: 7})
	d := c.Main()
	matches := c.Oracle(c.MainRel).Match(d, c.G)
	rows := make([]rel.Tuple, len(matches))
	for i, m := range matches {
		rows[i] = rel.Tuple{rel.I(int64(m.Vertex)), rel.S("a"), rel.S("b")}
	}
	schema := rel.NewSchema(d.Schema.Name+"_g", "vid",
		rel.Attribute{Name: "vid", Type: rel.KindInt},
		rel.Attribute{Name: "x", Type: rel.KindString}, rel.Attribute{Name: "y", Type: rel.KindString})
	ctx := context.Background()
	var sink *graph.Graph
	for _, bc := range []struct {
		name string
		op   func(g *graph.Graph, ex *Extractor, st *DurableStore, seq uint64)
	}{
		{"publish", func(g *graph.Graph, ex *Extractor, st *DurableStore, seq uint64) {
			ex.install(d, matches, &rel.Relation{Schema: schema, Tuples: rows})
			st.publish(ctx, seq)
		}},
		{"snapshot", func(g *graph.Graph, _ *Extractor, _ *DurableStore, _ uint64) { sink = g.Snapshot() }},
		{"clone", func(g *graph.Graph, _ *Extractor, _ *DurableStore, _ uint64) { sink = g.Clone() }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g := c.G.Clone()
			ex := NewExtractor(g, Models{}, Config{})
			st := &DurableStore{g: g, base: &BaseMaterialization{Extractor: ex}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				graph.RandomMixedBatch(g, mat.NewRNG(uint64(1000+i)), 16).Apply(g)
				b.StartTimer()
				bc.op(g, ex, st, uint64(i+1))
			}
			b.StopTimer()
			b.ReportMetric(float64(g.MaxVertexID()), "vertices")
			b.ReportMetric(float64(g.NumEdges()), "edges")
		})
	}
	_ = sink
}

// BenchmarkReadUnderIngest is the point-read mix — a static e-join over
// one key and a point l-join, each on a fresh view — in process beside a
// writer streaming 16-update mixed batches into the store at full speed:
// ns/op is one read, which no longer contains any of the writer's time.
func BenchmarkReadUnderIngest(b *testing.B) {
	w := incBenchWorld()
	m, err := BuildMaterialized(w.g, w.models, map[string]BaseSpec{
		"product": {D: w.products, AR: walkCfg.Keywords, Matcher: oracle(w)},
	}, walkCfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx, stopWriter := context.WithCancel(context.Background())
	defer stopWriter()
	st, err := OpenDurable(ctx, "db", DurableBoot{Base: m.Base("product"), Models: w.models, Cfg: walkCfg},
		DurableOptions{FS: wal.NewMemFS()})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	m.Attach("product", st)

	writerDone := make(chan struct{})
	var writes atomic.Int64
	go func() {
		defer close(writerDone)
		for i := 0; ctx.Err() == nil; i++ {
			delta := graph.RandomMixedBatch(st.Graph(), mat.NewRNG(uint64(5000+i)), 16)
			if _, err := st.ApplyGraphUpdate(delta); err != nil {
				b.Error(err)
				return
			}
			writes.Add(1)
		}
	}()

	point := func(d *rel.Relation, pid string) rel.Iterator {
		return rel.NewFilter(rel.NewScan(d), func(bt *rel.Batch) {
			bt.Refine(func(row int) bool { return bt.Col(0).ValueAt(row).Str() == pid })
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := m.View()
		d := v.Base("product").Spec.D
		pid, pid2 := fmt.Sprintf("fd%03d", i%300), fmt.Sprintf("fd%03d", (i*7+1)%300)
		var it rel.Iterator
		if i%2 == 0 {
			if it, err = v.StaticEnrichIter("product", point(d, pid), walkCfg.Keywords); err != nil {
				b.Fatal(err)
			}
		} else {
			it = v.StaticLinkIter("product", point(d, pid),
				"product", rel.NewRename(point(d, pid2), "product2"),
				3, 1, LinkCacheKey("product", pid, "product", pid2, 3))
		}
		if _, err := rel.Materialize(ctx, it); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stopWriter()
	<-writerDone
	b.ReportMetric(float64(writes.Load())/b.Elapsed().Seconds(), "batches/s")
}
