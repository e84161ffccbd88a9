package graph

import (
	"bytes"
	"reflect"
	"testing"

	"semjoin/internal/mat"
)

// scrambledGraph builds a graph with deletion history, so vertex-slot
// holes, swap-removed adjacency order and a swap-removed type index
// are all present.
func scrambledGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < 20; i++ {
		typ := "even"
		if i%2 == 1 {
			typ = "odd"
		}
		g.AddVertex("v"+string(rune('a'+i)), typ)
	}
	rng := mat.NewRNG(7)
	labels := []string{"likes", "owns", "near"}
	for i := 0; i < 60; i++ {
		from := VertexID(rng.Intn(20))
		to := VertexID(rng.Intn(20))
		if from == to {
			continue
		}
		if _, err := g.AddEdge(from, labels[rng.Intn(3)], to); err != nil {
			t.Fatal(err)
		}
	}
	// History-dependent state: removals reorder adjacency and byType.
	g.RemoveVertex(3)
	g.RemoveVertex(8)
	g.RemoveEdge(1, "likes", 2)
	g.Edges(func(e Edge) {}) // touch iteration before save
	return g
}

func TestGraphSaveLoadExactFidelity(t *testing.T) {
	g := scrambledGraph(t)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The mutation count stamps structures derived in memory from one
	// graph object and its clones and snapshots; it is not part of the
	// image. Load fills the tables from the image and starts the count at
	// zero — legitimately different from g's, and harmless: a loaded
	// graph is a new object in a new lineage, nothing derived from g is
	// ever looked up against it, and the bases extracted over it get
	// process-unique generations.
	got.mutations = g.mutations
	if !reflect.DeepEqual(g, got) {
		t.Fatalf("loaded graph differs from original:\n%+v\nvs\n%+v", g, got)
	}
	// Future behaviour identical: the next allocated id matches, and a
	// re-save is byte-identical.
	if id1, id2 := g.AddVertex("x", "even"), got.AddVertex("x", "even"); id1 != id2 {
		t.Fatalf("post-load id allocation diverged: %d vs %d", id1, id2)
	}
	var b1, b2 bytes.Buffer
	if err := g.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("re-saved graphs diverge")
	}
}

func TestGraphLoadRejectsCorrupt(t *testing.T) {
	g := scrambledGraph(t)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 3, len(data) / 2, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("Load accepted truncation at %d", cut)
		}
	}
}

func TestBatchSaveLoadRoundTrip(t *testing.T) {
	g := scrambledGraph(t)
	rng := mat.NewRNG(11)
	b := RandomMixedBatch(g, rng, 25)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBatch(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Fatalf("batch round-trip mismatch")
	}
	// Replay equivalence: applying the decoded batch to a clone touches
	// the same vertices and yields the same graph bytes.
	g2 := g.Clone()
	t1 := b.Apply(g)
	t2 := got.Apply(g2)
	if len(t1) != len(t2) {
		t.Fatalf("touched sets differ: %d vs %d", len(t1), len(t2))
	}
	var b1, b2 bytes.Buffer
	if err := g.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := g2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("replayed graphs diverge")
	}
	if _, err := LoadBatch(bytes.NewReader(buf.Bytes()[:8])); err == nil {
		t.Fatal("LoadBatch accepted truncated input")
	}
}
