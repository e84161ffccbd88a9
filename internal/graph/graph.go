// Package graph implements the directed labeled graph substrate of the
// paper: G = (V, E, L) where vertex labels may carry values and edge labels
// typify predicates (§II-A). It provides the traversal primitives the
// extraction scheme and semantic joins need — undirected simple-path
// expansion bounded by k, bidirectional BFS k-hop connectivity, random
// walks for corpus construction — plus batch updates (ΔG) for incremental
// maintenance.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex within a Graph.
type VertexID int32

// NoVertex is the invalid vertex id.
const NoVertex VertexID = -1

// Vertex is a labeled graph vertex. Label may carry a value (e.g. "UK",
// "G&L ESG"); Type classifies the vertex when the graph is "typed"
// (§IV-B), e.g. "product", "company". Type may be empty for untyped graphs.
type Vertex struct {
	ID      VertexID
	Label   string
	Type    string
	deleted bool
}

// HalfEdge is one adjacency entry: the edge label and the vertex on the
// other side. Dir records the orientation relative to the owning vertex.
type HalfEdge struct {
	Label string
	To    VertexID
}

// Edge is a fully specified directed labeled edge.
type Edge struct {
	From  VertexID
	Label string
	To    VertexID
}

// Graph is a directed labeled multigraph. The zero value is an empty graph
// ready to use. Graph is not safe for concurrent mutation; concurrent
// readers are safe once mutation has stopped. A graph that must change
// while others read it hands them a Snapshot.
type Graph struct {
	vertices []Vertex
	out      [][]HalfEdge
	in       [][]HalfEdge
	numEdges int
	// byType indexes live vertices by Type for typed-graph operations.
	byType map[string][]VertexID
	// mutations counts structural changes; see Mutations.
	mutations uint64
	// shared is set once Snapshot has handed this graph's adjacency and
	// byType lists to a snapshot: from then on a write inside a list
	// (the two swap-deletes) goes to a copy of it. Appends need no copy —
	// they land past the length the snapshot holds.
	shared bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byType: make(map[string][]VertexID)}
}

// AddVertex inserts a vertex with the given label and type and returns its
// id.
func (g *Graph) AddVertex(label, typ string) VertexID {
	id := VertexID(len(g.vertices))
	g.vertices = append(g.vertices, Vertex{ID: id, Label: label, Type: typ})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	if g.byType == nil {
		g.byType = make(map[string][]VertexID)
	}
	g.byType[typ] = append(g.byType[typ], id)
	g.mutations++
	return id
}

// AddEdge inserts a directed labeled edge and reports whether the graph
// changed. Parallel edges with distinct labels are allowed; inserting
// the exact same (from,label,to) twice is a no-op so that random update
// streams remain idempotent. Referencing a missing or deleted endpoint
// is an error (it used to panic), so malformed update streams degrade
// into a reportable failure instead of crashing the process.
func (g *Graph) AddEdge(from VertexID, label string, to VertexID) (bool, error) {
	if !g.Live(from) {
		return false, fmt.Errorf("graph: AddEdge: vertex %d does not exist", from)
	}
	if !g.Live(to) {
		return false, fmt.Errorf("graph: AddEdge: vertex %d does not exist", to)
	}
	for _, he := range g.out[from] {
		if he.To == to && he.Label == label {
			return false, nil
		}
	}
	g.out[from] = append(g.out[from], HalfEdge{Label: label, To: to})
	g.in[to] = append(g.in[to], HalfEdge{Label: label, To: from})
	g.numEdges++
	g.mutations++
	return true, nil
}

// RemoveEdge deletes the edge (from,label,to) if present and reports
// whether it was removed.
func (g *Graph) RemoveEdge(from VertexID, label string, to VertexID) bool {
	if !g.Live(from) || !g.Live(to) {
		return false
	}
	if !g.removeHalf(&g.out[from], label, to) {
		return false
	}
	g.removeHalf(&g.in[to], label, from)
	g.numEdges--
	g.mutations++
	return true
}

// removeHalf swap-deletes the entry (label, to) from one adjacency list,
// in a copy of the list when a snapshot may be reading it.
func (g *Graph) removeHalf(hs *[]HalfEdge, label string, to VertexID) bool {
	s := *hs
	for i, he := range s {
		if he.To == to && he.Label == label {
			if g.shared {
				s = append([]HalfEdge(nil), s...)
			}
			s[i] = s[len(s)-1]
			*hs = s[:len(s)-1]
			return true
		}
	}
	return false
}

// RemoveVertex deletes v and all its incident edges.
func (g *Graph) RemoveVertex(v VertexID) {
	if !g.Live(v) {
		return
	}
	for _, he := range g.out[v] {
		g.removeHalf(&g.in[he.To], he.Label, v)
		g.numEdges--
	}
	for _, he := range g.in[v] {
		g.removeHalf(&g.out[he.To], he.Label, v)
		g.numEdges--
	}
	g.out[v], g.in[v] = nil, nil
	typ := g.vertices[v].Type
	ids := g.byType[typ]
	for i, id := range ids {
		if id == v {
			if g.shared {
				ids = append([]VertexID(nil), ids...)
			}
			ids[i] = ids[len(ids)-1]
			g.byType[typ] = ids[:len(ids)-1]
			break
		}
	}
	g.vertices[v].deleted = true
	g.mutations++
}

// Mutations returns the number of structural changes (vertex and edge
// insertions and deletions that took effect) applied to g so far. What
// is derived from the topology — a cached connectivity set, say —
// records the count it was computed at and is out of date once the
// count has moved.
func (g *Graph) Mutations() uint64 { return g.mutations }

// Live reports whether v is a valid, non-deleted vertex id.
func (g *Graph) Live(v VertexID) bool {
	return v >= 0 && int(v) < len(g.vertices) && !g.vertices[v].deleted
}

func (g *Graph) mustLive(v VertexID) {
	if !g.Live(v) {
		panic(fmt.Sprintf("graph: vertex %d does not exist", v)) //lint:allow nopanic internal invariant: vertex IDs are only minted by AddVertex
	}
}

// Vertex returns the vertex record for id. It panics on invalid ids.
func (g *Graph) Vertex(id VertexID) Vertex {
	g.mustLive(id)
	return g.vertices[id]
}

// Label returns the label of v, or "" if v is not live.
func (g *Graph) Label(v VertexID) string {
	if !g.Live(v) {
		return ""
	}
	return g.vertices[v].Label
}

// Type returns the type of v, or "" if v is not live.
func (g *Graph) Type(v VertexID) string {
	if !g.Live(v) {
		return ""
	}
	return g.vertices[v].Type
}

// Out returns the outgoing adjacency of v. The returned slice must not be
// modified.
func (g *Graph) Out(v VertexID) []HalfEdge {
	g.mustLive(v)
	return g.out[v]
}

// In returns the incoming adjacency of v. The returned slice must not be
// modified.
func (g *Graph) In(v VertexID) []HalfEdge {
	g.mustLive(v)
	return g.in[v]
}

// Neighbors appends to dst every undirected neighbour of v together with
// the connecting edge label, treating G as undirected as the path
// definition in §II-A requires, and returns the extended slice.
func (g *Graph) Neighbors(dst []HalfEdge, v VertexID) []HalfEdge {
	g.mustLive(v)
	dst = append(dst, g.out[v]...)
	dst = append(dst, g.in[v]...)
	return dst
}

// Degree returns the undirected degree of v.
func (g *Graph) Degree(v VertexID) int {
	g.mustLive(v)
	return len(g.out[v]) + len(g.in[v])
}

// NumVertices returns the count of live vertices.
func (g *Graph) NumVertices() int {
	n := 0
	for _, v := range g.vertices {
		if !v.deleted {
			n++
		}
	}
	return n
}

// NumEdges returns the count of live edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// MaxVertexID returns the largest id ever allocated plus one (the bound for
// dense per-vertex arrays). Deleted ids are included.
func (g *Graph) MaxVertexID() int { return len(g.vertices) }

// VerticesOfType returns the live vertices whose Type equals typ, in
// ascending id order.
func (g *Graph) VerticesOfType(typ string) []VertexID {
	ids := g.byType[typ]
	out := make([]VertexID, 0, len(ids))
	for _, id := range ids {
		if g.Live(id) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Types returns the distinct vertex types with at least one live vertex,
// sorted.
func (g *Graph) Types() []string {
	var ts []string
	for t, ids := range g.byType {
		alive := false
		for _, id := range ids {
			if g.Live(id) {
				alive = true
				break
			}
		}
		if alive {
			ts = append(ts, t)
		}
	}
	sort.Strings(ts)
	return ts
}

// Vertices calls fn for every live vertex.
func (g *Graph) Vertices(fn func(Vertex)) {
	for _, v := range g.vertices {
		if !v.deleted {
			fn(v)
		}
	}
}

// Edges calls fn for every live edge.
func (g *Graph) Edges(fn func(Edge)) {
	for from, hs := range g.out {
		if g.vertices[from].deleted {
			continue
		}
		for _, he := range hs {
			fn(Edge{From: VertexID(from), Label: he.Label, To: he.To})
		}
	}
}

// Snapshot returns a graph that stays as g is now however g changes
// afterwards, for readers that must not wait for g's writer. It costs
// three slice copies and a map copy: the vertex table and the two
// tables of adjacency-list headers are copied, the lists themselves and
// the byType lists are shared with g, which from now on copies a list
// before writing inside it (see Graph.shared). A snapshot reports g's
// Mutations count and must not itself be mutated — its lists are g's.
func (g *Graph) Snapshot() *Graph {
	g.shared = true
	out := &Graph{
		vertices:  append([]Vertex(nil), g.vertices...),
		out:       append([][]HalfEdge(nil), g.out...),
		in:        append([][]HalfEdge(nil), g.in...),
		numEdges:  g.numEdges,
		byType:    make(map[string][]VertexID, len(g.byType)),
		mutations: g.mutations,
		shared:    true,
	}
	for t, ids := range g.byType {
		out.byType[t] = ids
	}
	return out
}

// Clone returns a deep copy of the graph, Mutations count included.
// Experiments use it to compare incremental maintenance against a
// from-scratch run on the same ΔG.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		vertices:  append([]Vertex(nil), g.vertices...),
		out:       make([][]HalfEdge, len(g.out)),
		in:        make([][]HalfEdge, len(g.in)),
		numEdges:  g.numEdges,
		byType:    make(map[string][]VertexID, len(g.byType)),
		mutations: g.mutations,
	}
	for i, hs := range g.out {
		out.out[i] = append([]HalfEdge(nil), hs...)
	}
	for i, hs := range g.in {
		out.in[i] = append([]HalfEdge(nil), hs...)
	}
	for t, ids := range g.byType {
		out.byType[t] = append([]VertexID(nil), ids...)
	}
	return out
}

// EdgeLabels returns the distinct edge labels in the graph, sorted.
func (g *Graph) EdgeLabels() []string {
	seen := make(map[string]bool)
	g.Edges(func(e Edge) { seen[e.Label] = true })
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
