package graph

import (
	"fmt"
	"slices"
	"testing"

	"semjoin/internal/mat"
)

func TestCloneIsDeep(t *testing.T) {
	g := New()
	a := g.AddVertex("a", "t")
	b := g.AddVertex("b", "t")
	g.AddEdge(a, "e", b)

	c := g.Clone()
	if c.NumVertices() != 2 || c.NumEdges() != 1 {
		t.Fatalf("clone stats: %d vertices %d edges", c.NumVertices(), c.NumEdges())
	}
	// Mutating the original must not affect the clone and vice versa.
	g.RemoveEdge(a, "e", b)
	if c.NumEdges() != 1 {
		t.Fatal("clone shares edge storage with original")
	}
	nv := c.AddVertex("c", "t")
	c.AddEdge(a, "f", nv)
	if g.NumVertices() != 2 {
		t.Fatal("original gained clone's vertex")
	}
	c.RemoveVertex(b)
	if !g.Live(b) {
		t.Fatal("original lost clone's deleted vertex")
	}
	// Type index cloned correctly.
	if got := len(c.VerticesOfType("t")); got != 2 { // a and nv; b deleted
		t.Fatalf("clone type index = %d", got)
	}
}

func TestMarkLabel(t *testing.T) {
	if MarkLabel("x", true) != "x" || MarkLabel("x", false) != "^x" {
		t.Fatal("MarkLabel wrong")
	}
}

func TestSteps(t *testing.T) {
	g := New()
	a := g.AddVertex("a", "")
	b := g.AddVertex("b", "")
	g.AddEdge(a, "e", b)
	sa := g.Steps(nil, a)
	if len(sa) != 1 || !sa[0].Forward || sa[0].To != b {
		t.Fatalf("steps from a: %+v", sa)
	}
	sb := g.Steps(nil, b)
	if len(sb) != 1 || sb[0].Forward || sb[0].To != a {
		t.Fatalf("steps from b: %+v", sb)
	}
}

func TestComputeStats(t *testing.T) {
	g := New()
	a := g.AddVertex("hub", "t1")
	for i := 0; i < 5; i++ {
		v := g.AddVertex("leaf", "t2")
		g.AddEdge(a, "e", v)
	}
	iso := g.AddVertex("island", "t2")
	_ = iso
	st := g.ComputeStats()
	if st.Vertices != 7 || st.Edges != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Components != 2 {
		t.Fatalf("components = %d, want 2", st.Components)
	}
	if st.MaxDegree != 5 {
		t.Fatalf("max degree = %d", st.MaxDegree)
	}
	if st.Types != 2 {
		t.Fatalf("types = %d", st.Types)
	}
	if st.DegreeHist[0] != 1 { // the island
		t.Fatalf("degree histogram = %v", st.DegreeHist)
	}
	if st.DegreeHist[1] != 5 { // the leaves
		t.Fatalf("degree histogram = %v", st.DegreeHist)
	}
}

func TestTopLabels(t *testing.T) {
	g := New()
	for i := 0; i < 3; i++ {
		g.AddVertex("common", "")
	}
	g.AddVertex("rare", "")
	top := g.TopLabels(1)
	if len(top) != 1 || top[0].Label != "common" || top[0].Count != 3 {
		t.Fatalf("top = %+v", top)
	}
}

// TestCloneAndSnapshotCarryMutations: what is stamped with the count (a
// cached connectivity set) must not collide across a clone or a
// snapshot, so both report the source's count, and mutating the source
// afterwards moves neither.
func TestCloneAndSnapshotCarryMutations(t *testing.T) {
	g := New()
	a := g.AddVertex("a", "t")
	b := g.AddVertex("b", "t")
	g.AddEdge(a, "e", b)
	at := g.Mutations()
	if at != 3 {
		t.Fatalf("Mutations = %d after two vertices and an edge", at)
	}
	c, s := g.Clone(), g.Snapshot()
	if c.Mutations() != at || s.Mutations() != at {
		t.Fatalf("clone reports %d, snapshot %d, source %d", c.Mutations(), s.Mutations(), at)
	}
	g.RemoveEdge(a, "e", b)
	g.AddVertex("c", "t")
	if g.Mutations() != at+2 {
		t.Fatalf("source Mutations = %d, want %d", g.Mutations(), at+2)
	}
	if c.Mutations() != at || s.Mutations() != at {
		t.Fatalf("mutating the source moved the clone (%d) or the snapshot (%d) off %d", c.Mutations(), s.Mutations(), at)
	}
}

// sameGraph compares everything a reader can observe of two graphs, in
// order: the vertex table, both adjacency lists of every vertex, the
// type index, liveness and the edge count.
func sameGraph(t *testing.T, when string, got, want *Graph) {
	t.Helper()
	if got.MaxVertexID() != want.MaxVertexID() || got.NumEdges() != want.NumEdges() || got.NumVertices() != want.NumVertices() {
		t.Fatalf("%s: %d ids / %d vertices / %d edges, want %d / %d / %d", when,
			got.MaxVertexID(), got.NumVertices(), got.NumEdges(), want.MaxVertexID(), want.NumVertices(), want.NumEdges())
	}
	for v := VertexID(0); int(v) < want.MaxVertexID(); v++ {
		if got.Live(v) != want.Live(v) {
			t.Fatalf("%s: Live(%d) = %v", when, v, got.Live(v))
		}
		if got.vertices[v] != want.vertices[v] {
			t.Fatalf("%s: vertex %d is %+v, want %+v", when, v, got.vertices[v], want.vertices[v])
		}
		if !slices.Equal(got.out[v], want.out[v]) || !slices.Equal(got.in[v], want.in[v]) {
			t.Fatalf("%s: adjacency of %d is out %v in %v, want out %v in %v", when, v, got.out[v], got.in[v], want.out[v], want.in[v])
		}
	}
	if len(got.byType) != len(want.byType) {
		t.Fatalf("%s: %d types, want %d", when, len(got.byType), len(want.byType))
	}
	for typ, ids := range want.byType {
		if !slices.Equal(got.byType[typ], ids) {
			t.Fatalf("%s: byType[%q] = %v, want %v", when, typ, got.byType[typ], ids)
		}
	}
}

// TestSnapshotSurvivesUpdateStream: a snapshot taken before each step of
// a seeded mixed update stream still equals a deep Clone taken at the
// same moment once 200 further batches — edge and vertex insertions and
// deletions, so appends past its lengths and swap-deletes inside its
// lists — have gone through the graph it shares its lists with.
func TestSnapshotSurvivesUpdateStream(t *testing.T) {
	g := New()
	var hubs []VertexID
	for i := 0; i < 6; i++ {
		hubs = append(hubs, g.AddVertex(fmt.Sprintf("hub%d", i), "hub"))
	}
	for i := 0; i < 60; i++ {
		v := g.AddVertex(fmt.Sprintf("leaf%d", i), []string{"red", "green", "blue"}[i%3])
		g.AddEdge(hubs[i%len(hubs)], "has", v)
		g.AddEdge(v, "near", hubs[(i+1)%len(hubs)])
	}
	rng := mat.NewRNG(11)
	const steps, further = 40, 200
	type pair struct{ snap, clone *Graph }
	var taken []pair
	for i := 0; i < steps+further; i++ {
		if i < steps {
			taken = append(taken, pair{g.Snapshot(), g.Clone()})
		}
		RandomMixedBatch(g, rng, 8).Apply(g)
	}
	for i, p := range taken {
		sameGraph(t, fmt.Sprintf("snapshot before step %d", i), p.snap, p.clone)
	}
	// The graph itself went where a graph that was never snapshotted goes.
	plain := taken[0].clone
	rng = mat.NewRNG(11)
	for i := 0; i < steps+further; i++ {
		RandomMixedBatch(plain, rng, 8).Apply(plain)
	}
	sameGraph(t, "the snapshotted graph after the stream", g, plain)
}
