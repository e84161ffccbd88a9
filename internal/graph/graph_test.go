package graph

import (
	"sync"
	"testing"

	"semjoin/internal/mat"
)

// buildFigure1 reconstructs (a fragment of) the paper's Figure 1 graph:
// products pid1..pid4, companies, countries, types, customers.
func buildFigure1(t *testing.T) (*Graph, map[string]VertexID) {
	t.Helper()
	g := New()
	v := map[string]VertexID{}
	add := func(label, typ string) {
		v[label] = g.AddVertex(label, typ)
	}
	add("pid1", "product")
	add("pid2", "product")
	add("pid3", "product")
	add("pid4", "product")
	add("company1", "company")
	add("company2", "company")
	add("UK", "country")
	add("US", "country")
	add("Funds", "category")
	add("Stocks", "category")
	add("ETF", "category")
	add("Trust", "category")
	add("Bob1", "person")
	add("Bob3", "person")
	add("Ada", "person")

	e := func(a, label, b string) { g.AddEdge(v[a], label, v[b]) }
	e("pid1", "based_on", "pid2")
	e("pid1", "based_on", "pid3")
	e("pid1", "type", "Funds")
	e("pid2", "type", "ETF")
	e("pid3", "type", "Trust")
	e("pid4", "type", "Stocks")
	e("company1", "issue", "pid2")
	e("company1", "issue", "pid4")
	e("company2", "issue", "pid4")
	e("company1", "regloc", "UK")
	e("company2", "regloc", "US")
	e("Bob1", "invest", "pid1")
	e("Bob3", "invest", "pid4")
	e("Ada", "invest", "pid4")
	return g, v
}

func TestAddVertexEdgeBasics(t *testing.T) {
	g, v := buildFigure1(t)
	if g.NumVertices() != 15 {
		t.Fatalf("NumVertices = %d, want 15", g.NumVertices())
	}
	if g.NumEdges() != 14 {
		t.Fatalf("NumEdges = %d, want 14", g.NumEdges())
	}
	if g.Label(v["pid1"]) != "pid1" || g.Type(v["pid1"]) != "product" {
		t.Fatal("vertex label/type wrong")
	}
	if len(g.Out(v["pid1"])) != 3 {
		t.Fatalf("pid1 out-degree = %d, want 3", len(g.Out(v["pid1"])))
	}
	if len(g.In(v["pid4"])) != 4 {
		t.Fatalf("pid4 in-degree = %d, want 4", len(g.In(v["pid4"])))
	}
}

func TestDuplicateEdgeIsNoop(t *testing.T) {
	g := New()
	a := g.AddVertex("a", "")
	b := g.AddVertex("b", "")
	if ok, err := g.AddEdge(a, "l", b); err != nil || !ok {
		t.Fatalf("first insert should succeed: ok=%v err=%v", ok, err)
	}
	if ok, err := g.AddEdge(a, "l", b); err != nil || ok {
		t.Fatalf("duplicate insert should be a no-op: ok=%v err=%v", ok, err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	// Parallel edge with a different label is allowed.
	if ok, err := g.AddEdge(a, "m", b); err != nil || !ok {
		t.Fatalf("parallel edge with new label should succeed: ok=%v err=%v", ok, err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g, v := buildFigure1(t)
	if !g.RemoveEdge(v["pid1"], "based_on", v["pid2"]) {
		t.Fatal("RemoveEdge should succeed")
	}
	if g.RemoveEdge(v["pid1"], "based_on", v["pid2"]) {
		t.Fatal("second RemoveEdge should fail")
	}
	if g.NumEdges() != 13 {
		t.Fatalf("NumEdges = %d, want 13", g.NumEdges())
	}
	for _, he := range g.In(v["pid2"]) {
		if he.To == v["pid1"] && he.Label == "based_on" {
			t.Fatal("in-adjacency not cleaned up")
		}
	}
}

func TestRemoveVertex(t *testing.T) {
	g, v := buildFigure1(t)
	before := g.NumEdges()
	deg := g.Degree(v["pid4"])
	g.RemoveVertex(v["pid4"])
	if g.Live(v["pid4"]) {
		t.Fatal("vertex should be dead")
	}
	if g.NumEdges() != before-deg {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), before-deg)
	}
	for _, he := range g.Out(v["company1"]) {
		if he.To == v["pid4"] {
			t.Fatal("dangling out-edge to deleted vertex")
		}
	}
	ids := g.VerticesOfType("product")
	if len(ids) != 3 {
		t.Fatalf("products after delete = %d, want 3", len(ids))
	}
}

func TestVerticesOfTypeAndTypes(t *testing.T) {
	g, _ := buildFigure1(t)
	prods := g.VerticesOfType("product")
	if len(prods) != 4 {
		t.Fatalf("products = %d", len(prods))
	}
	for i := 1; i < len(prods); i++ {
		if prods[i-1] >= prods[i] {
			t.Fatal("VerticesOfType not sorted")
		}
	}
	ts := g.Types()
	want := []string{"category", "company", "country", "person", "product"}
	if len(ts) != len(want) {
		t.Fatalf("Types = %v", ts)
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("Types = %v, want %v", ts, want)
		}
	}
}

func TestNeighborsUndirected(t *testing.T) {
	g, v := buildFigure1(t)
	ns := g.Neighbors(nil, v["pid2"])
	// pid2: in from pid1 (based_on), in from company1 (issue), out to ETF (type).
	if len(ns) != 3 {
		t.Fatalf("pid2 undirected degree = %d, want 3", len(ns))
	}
}

func TestWithinKHops(t *testing.T) {
	g, v := buildFigure1(t)
	// pid1 -based_on-> pid2 <-issue- company1 -regloc-> UK : distance 3.
	if d := g.WithinKHops(v["pid1"], v["UK"], 3); d != 3 {
		t.Fatalf("dist(pid1, UK) = %d, want 3", d)
	}
	if d := g.WithinKHops(v["pid1"], v["UK"], 2); d != -1 {
		t.Fatalf("dist within 2 = %d, want -1", d)
	}
	if d := g.WithinKHops(v["pid1"], v["pid1"], 0); d != 0 {
		t.Fatalf("self distance = %d, want 0", d)
	}
	// Bob3 and Ada are both 2 hops apart through pid4.
	if d := g.WithinKHops(v["Bob3"], v["Ada"], 5); d != 2 {
		t.Fatalf("dist(Bob3, Ada) = %d, want 2", d)
	}
	// Disconnected pair.
	iso := g.AddVertex("island", "")
	if d := g.WithinKHops(v["pid1"], iso, 10); d != -1 {
		t.Fatalf("disconnected distance = %d, want -1", d)
	}
}

func TestWithinKHopsMatchesBFS(t *testing.T) {
	// Cross-check bidirectional BFS against a plain BFS on a random graph.
	rng := mat.NewRNG(5)
	g := New()
	const n = 60
	for i := 0; i < n; i++ {
		g.AddVertex("v", "")
	}
	for i := 0; i < 120; i++ {
		g.AddEdge(VertexID(rng.Intn(n)), "e", VertexID(rng.Intn(n)))
	}
	bfs := func(s VertexID) map[VertexID]int {
		dist := map[VertexID]int{s: 0}
		front := []VertexID{s}
		for len(front) > 0 {
			var next []VertexID
			for _, x := range front {
				for _, he := range g.Neighbors(nil, x) {
					if _, ok := dist[he.To]; !ok {
						dist[he.To] = dist[x] + 1
						next = append(next, he.To)
					}
				}
			}
			front = next
		}
		return dist
	}
	for s := VertexID(0); s < 5; s++ {
		dist := bfs(s)
		for v := VertexID(0); v < n; v++ {
			want, ok := dist[v]
			for k := 0; k <= 6; k++ {
				got := g.WithinKHops(s, v, k)
				switch {
				case ok && want <= k:
					if got != want {
						t.Fatalf("dist(%d,%d,k=%d) = %d, want %d", s, v, k, got, want)
					}
				default:
					if got != -1 {
						t.Fatalf("dist(%d,%d,k=%d) = %d, want -1 (true %d, ok=%v)", s, v, k, got, want, ok)
					}
				}
			}
		}
	}
}

func TestKHopNeighborhood(t *testing.T) {
	g, v := buildFigure1(t)
	n0 := g.KHopNeighborhood([]VertexID{v["pid1"]}, 0)
	if len(n0) != 1 || !n0[v["pid1"]] {
		t.Fatalf("0-hop = %v", n0)
	}
	n1 := g.KHopNeighborhood([]VertexID{v["pid1"]}, 1)
	// pid1 ~ pid2, pid3, Funds, Bob1 plus itself.
	if len(n1) != 5 {
		t.Fatalf("1-hop size = %d, want 5", len(n1))
	}
	all := g.KHopNeighborhood([]VertexID{v["pid1"]}, 10)
	if len(all) != 15 {
		t.Fatalf("10-hop should reach whole component: %d", len(all))
	}
}

func TestSimplePaths(t *testing.T) {
	g, v := buildFigure1(t)
	count := 0
	maxLen := 0
	g.SimplePaths(v["pid1"], 2, func(p Path) {
		count++
		if p.Len() > maxLen {
			maxLen = p.Len()
		}
		if p.Start() != v["pid1"] {
			t.Fatal("path does not start at source")
		}
		seen := map[VertexID]bool{}
		for _, u := range p.Vertices {
			if seen[u] {
				t.Fatal("path is not simple")
			}
			seen[u] = true
		}
	})
	if count == 0 || maxLen != 2 {
		t.Fatalf("count=%d maxLen=%d", count, maxLen)
	}
	// k=0 yields nothing.
	g.SimplePaths(v["pid1"], 0, func(Path) { t.Fatal("unexpected path at k=0") })
}

func TestSimplePathsCountOnSmallClique(t *testing.T) {
	// Complete graph K4: from any vertex, simple paths of length 1..3:
	// 3 + 3*2 + 3*2*1 = 15.
	g := New()
	var ids []VertexID
	for i := 0; i < 4; i++ {
		ids = append(ids, g.AddVertex("v", ""))
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(ids[i], "e", ids[j])
		}
	}
	count := 0
	g.SimplePaths(ids[0], 3, func(Path) { count++ })
	if count != 15 {
		t.Fatalf("K4 simple paths = %d, want 15", count)
	}
}

func TestRandomWalk(t *testing.T) {
	g, v := buildFigure1(t)
	rng := mat.NewRNG(1)
	p := g.RandomWalk(rng, v["pid1"], 8)
	if p.Start() != v["pid1"] {
		t.Fatal("walk must start at start")
	}
	if p.Len() > 8 {
		t.Fatalf("walk too long: %d", p.Len())
	}
	for i := 0; i+1 < len(p.Vertices); i++ {
		// Each consecutive pair must be connected, with the label marked
		// according to the traversal direction.
		ok := false
		for _, st := range g.Steps(nil, p.Vertices[i]) {
			if st.To == p.Vertices[i+1] && MarkLabel(st.Label, st.Forward) == p.EdgeLabels[i] {
				ok = true
			}
		}
		if !ok {
			t.Fatal("walk traverses a non-edge")
		}
	}
	s := g.WalkSentence(p)
	if len(s) != 2*len(p.Vertices)-1 {
		t.Fatalf("sentence length = %d", len(s))
	}
	// Isolated vertex: walk stops immediately.
	iso := g.AddVertex("iso", "")
	if got := g.RandomWalk(rng, iso, 5); got.Len() != 0 {
		t.Fatal("walk from isolated vertex should have length 0")
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{Vertices: []VertexID{1, 2}, EdgeLabels: []string{"a"}}
	q := p.Extend("b", 3)
	if q.Len() != 2 || q.End() != 3 || p.Len() != 1 {
		t.Fatal("Extend must not mutate the receiver")
	}
	if !q.Contains(2) || q.Contains(9) {
		t.Fatal("Contains wrong")
	}
	c := q.Clone()
	c.Vertices[0] = 99
	if q.Vertices[0] == 99 {
		t.Fatal("Clone should deep-copy")
	}
}

func TestBatchApply(t *testing.T) {
	g, v := buildFigure1(t)
	b := Batch{
		{Op: DeleteEdge, Edge: Edge{From: v["pid1"], Label: "type", To: v["Funds"]}},
		{Op: InsertEdge, Edge: Edge{From: v["pid3"], Label: "issue", To: v["company2"]}},
		{Op: InsertVertex, Label: "Germany", Type: "country"},
	}
	touched := b.Apply(g)
	if len(touched) == 0 {
		t.Fatal("expected touched vertices")
	}
	if g.NumEdges() != 14 { // -1 +1
		t.Fatalf("NumEdges = %d, want 14", g.NumEdges())
	}
	// Inserted vertex id propagated back into the batch.
	if b[2].Edge.From == 0 {
		t.Fatal("InsertVertex should record the new id")
	}
	if g.Label(b[2].Edge.From) != "Germany" {
		t.Fatal("inserted vertex missing")
	}
}

func TestBatchDeleteVertexTouchesNeighbors(t *testing.T) {
	g, v := buildFigure1(t)
	b := Batch{{Op: DeleteVertex, Edge: Edge{From: v["pid4"]}}}
	touched := b.Apply(g)
	wantTouched := map[VertexID]bool{
		v["company1"]: true, v["company2"]: true,
		v["Stocks"]: true, v["Bob3"]: true, v["Ada"]: true,
	}
	for _, x := range touched {
		if !wantTouched[x] {
			t.Fatalf("unexpected touched vertex %d", x)
		}
		delete(wantTouched, x)
	}
	if len(wantTouched) != 0 {
		t.Fatalf("missing touched vertices: %v", wantTouched)
	}
}

// TestBatchNoOpTouchesNothing pins that touched means "adjacency
// changed": updates that leave the graph as it was — a duplicate insert,
// a delete of a missing edge, an insert at a dead endpoint — report no
// vertex and do not move Mutations().
func TestBatchNoOpTouchesNothing(t *testing.T) {
	g, v := buildFigure1(t)
	dead := v["pid4"]
	Batch{{Op: DeleteVertex, Edge: Edge{From: dead}}}.Apply(g)
	for _, tc := range []struct {
		name string
		u    Update
	}{
		{"duplicate insert", Update{Op: InsertEdge, Edge: Edge{From: v["pid1"], Label: "type", To: v["Funds"]}}},
		{"delete of a missing edge", Update{Op: DeleteEdge, Edge: Edge{From: v["Funds"], Label: "type", To: v["pid1"]}}},
		{"insert at a dead endpoint", Update{Op: InsertEdge, Edge: Edge{From: v["pid1"], Label: "type", To: dead}}},
		{"delete of a dead vertex", Update{Op: DeleteVertex, Edge: Edge{From: dead}}},
	} {
		before, edges := g.Mutations(), g.NumEdges()
		if touched := (Batch{tc.u}).Apply(g); len(touched) != 0 {
			t.Errorf("%s touched %v, want nothing", tc.name, touched)
		}
		if g.Mutations() != before || g.NumEdges() != edges {
			t.Errorf("%s changed the graph", tc.name)
		}
	}
}

func TestRandomBatchPreservesSize(t *testing.T) {
	g, _ := buildFigure1(t)
	rng := mat.NewRNG(3)
	before := g.NumEdges()
	b := RandomBatch(g, rng, 6)
	if len(b) != 6 {
		t.Fatalf("batch size = %d", len(b))
	}
	b.Apply(g)
	after := g.NumEdges()
	if diff := after - before; diff < -1 || diff > 1 {
		// Insertions may occasionally collide with existing edges, so allow
		// slight shrinkage but not drift.
		if diff < -3 {
			t.Fatalf("graph size drifted: %d -> %d", before, after)
		}
	}
}

func TestEdgeLabels(t *testing.T) {
	g, _ := buildFigure1(t)
	labels := g.EdgeLabels()
	want := []string{"based_on", "invest", "issue", "regloc", "type"}
	if len(labels) != len(want) {
		t.Fatalf("EdgeLabels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("EdgeLabels = %v, want %v", labels, want)
		}
	}
}

func TestAddEdgeMissingVertexError(t *testing.T) {
	g := New()
	a := g.AddVertex("a", "")
	// Regression: an out-of-range endpoint used to panic the process.
	if ok, err := g.AddEdge(a, "l", VertexID(99)); err == nil || ok {
		t.Fatalf("edge to missing vertex: ok=%v err=%v, want error", ok, err)
	}
	if ok, err := g.AddEdge(VertexID(-1), "l", a); err == nil || ok {
		t.Fatalf("edge from negative vertex: ok=%v err=%v, want error", ok, err)
	}
	b := g.AddVertex("b", "")
	g.RemoveVertex(b)
	if ok, err := g.AddEdge(a, "l", b); err == nil || ok {
		t.Fatalf("edge to deleted vertex: ok=%v err=%v, want error", ok, err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("failed inserts must not change the graph: NumEdges = %d", g.NumEdges())
	}
}

func TestConcurrentReadersAfterMutation(t *testing.T) {
	// The documented regime of every parallel worker pool: concurrent
	// readers are safe once mutation has stopped. Run under -race.
	g, _ := buildFigure1(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			total := 0
			g.Vertices(func(v Vertex) {
				total += len(g.Out(v.ID)) + len(g.In(v.ID))
				_ = g.Label(v.ID)
				_ = g.Type(v.ID)
			})
			if total == 0 {
				t.Error("reader saw an empty graph")
			}
			reach := g.KHopNeighborhood([]VertexID{VertexID(seed % int64(g.NumVertices()))}, 2)
			_ = reach
		}(int64(w))
	}
	wg.Wait()
}

// TestMutationsCountsEffectiveChanges pins what derived structures rely
// on: the count moves on every change that took effect and on nothing
// else.
func TestMutationsCountsEffectiveChanges(t *testing.T) {
	g := New()
	a, b := g.AddVertex("a", "t"), g.AddVertex("b", "t")
	step := func(what string, want uint64, f func()) {
		t.Helper()
		before := g.Mutations()
		f()
		if got := g.Mutations() - before; got != want {
			t.Fatalf("%s moved the count by %d, want %d", what, got, want)
		}
	}
	step("AddVertex", 1, func() { g.AddVertex("c", "t") })
	step("AddEdge", 1, func() { g.AddEdge(a, "l", b) })
	step("duplicate AddEdge", 0, func() { g.AddEdge(a, "l", b) })
	step("RemoveEdge of a missing edge", 0, func() { g.RemoveEdge(b, "l", a) })
	step("RemoveEdge", 1, func() { g.RemoveEdge(a, "l", b) })
	step("RemoveVertex", 1, func() { g.RemoveVertex(b) })
	step("RemoveVertex of a dead vertex", 0, func() { g.RemoveVertex(b) })
	step("reads", 0, func() { g.Live(a); g.Neighbors(nil, a); g.Clone() })
}
