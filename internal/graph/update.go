package graph

import (
	"strings"

	"semjoin/internal/mat"
)

// UpdateOp is the kind of a single graph update.
type UpdateOp int

const (
	// InsertEdge adds an edge (creating no vertices).
	InsertEdge UpdateOp = iota
	// DeleteEdge removes an edge.
	DeleteEdge
	// InsertVertex adds a vertex; Edge.From receives the new id on Apply.
	InsertVertex
	// DeleteVertex removes the vertex Edge.From and its incident edges.
	DeleteVertex
)

// Update is one element of a batch ΔG.
type Update struct {
	Op    UpdateOp
	Edge  Edge   // edge for edge ops; From used for vertex ops
	Label string // vertex label for InsertVertex
	Type  string // vertex type for InsertVertex
}

// Batch is an ordered set of updates ΔG.
type Batch []Update

// Apply applies every update to g and returns the live vertices whose
// adjacency the batch changed: both endpoints of every edge that was
// really added or removed, every neighbour of a deleted vertex, and
// inserted vertices. An update that leaves g as it was — inserting an
// edge that exists, deleting one that does not, a dead endpoint —
// touches nothing. IncExt seeds its affected-vertex search from this set
// and keeps a cached walk that read none of it.
func (b Batch) Apply(g *Graph) []VertexID {
	touchedSet := make(map[VertexID]bool)
	for i := range b {
		u := &b[i]
		switch u.Op {
		case InsertEdge:
			// AddEdge's only error is a dead endpoint, which like a
			// duplicate edge changes nothing.
			if added, _ := g.AddEdge(u.Edge.From, u.Edge.Label, u.Edge.To); added {
				touchedSet[u.Edge.From] = true
				touchedSet[u.Edge.To] = true
			}
		case DeleteEdge:
			if g.RemoveEdge(u.Edge.From, u.Edge.Label, u.Edge.To) {
				touchedSet[u.Edge.From] = true
				touchedSet[u.Edge.To] = true
			}
		case InsertVertex:
			id := g.AddVertex(u.Label, u.Type)
			u.Edge.From = id
			touchedSet[id] = true
		case DeleteVertex:
			if g.Live(u.Edge.From) {
				// Neighbours of a deleted vertex lose paths through it.
				for _, he := range g.Out(u.Edge.From) {
					touchedSet[he.To] = true
				}
				for _, he := range g.In(u.Edge.From) {
					touchedSet[he.To] = true
				}
				g.RemoveVertex(u.Edge.From)
			}
		}
	}
	touched := make([]VertexID, 0, len(touchedSet))
	for v := range touchedSet {
		if g.Live(v) {
			touched = append(touched, v)
		}
	}
	return touched
}

// RandomBatch builds a ΔG with n/2 edge deletions sampled from the live
// edges of g and n/2 insertions of fresh edges between random live vertices
// reusing existing edge labels, so that |G| stays (approximately) unchanged
// as in Exp-4. The batch is not applied.
func RandomBatch(g *Graph, rng *mat.RNG, n int) Batch {
	var edges []Edge
	g.Edges(func(e Edge) { edges = append(edges, e) })
	var ids []VertexID
	g.Vertices(func(v Vertex) { ids = append(ids, v.ID) })
	labels := g.EdgeLabels()
	if len(edges) == 0 || len(ids) < 2 || len(labels) == 0 {
		return nil
	}
	half := n / 2
	batch := make(Batch, 0, n)
	perm := rng.Perm(len(edges))
	for i := 0; i < half && i < len(perm); i++ {
		batch = append(batch, Update{Op: DeleteEdge, Edge: edges[perm[i]]})
	}
	for i := 0; i < n-half; i++ {
		from := ids[rng.Intn(len(ids))]
		to := ids[rng.Intn(len(ids))]
		if from == to {
			to = ids[(rng.Intn(len(ids)-1)+1+indexOf(ids, from))%len(ids)]
		}
		batch = append(batch, Update{
			Op:   InsertEdge,
			Edge: Edge{From: from, Label: labels[rng.Intn(len(labels))], To: to},
		})
	}
	return batch
}

// RandomMixedBatch builds a ΔG of n updates drawing from all four update
// kinds: edge deletions and insertions (as RandomBatch), vertex
// insertions (fresh label, type sampled from the live types, wired to a
// random live vertex by a follow-up edge insertion so the newcomer is
// reachable), and vertex deletions. A deletion retires a vertex that an
// earlier batch inserted (they carry mixedMark in their label) while one
// is live, and a random live vertex otherwise, so a long stream churns
// its own additions and |V|, |E| and the vertices it was seeded with stay
// about as they were, as RandomBatch keeps |G|: with uniformly random victims a
// stream applied k times faster empties the seeded graph k times sooner,
// and what a batch costs depends on how many were applied before it.
// Property-based IncExt oracles use it to exercise the delete and
// insert maintenance paths that edge-only batches never reach (their
// streams are short: most deletions find no inserted vertex yet and hit
// a seeded one). The batch is not applied.
func RandomMixedBatch(g *Graph, rng *mat.RNG, n int) Batch {
	var edges []Edge
	g.Edges(func(e Edge) { edges = append(edges, e) })
	var ids, own []VertexID
	g.Vertices(func(v Vertex) {
		ids = append(ids, v.ID)
		if strings.Contains(v.Label, mixedMark) {
			own = append(own, v.ID)
		}
	})
	labels := g.EdgeLabels()
	types := g.Types()
	if len(ids) < 2 || len(labels) == 0 {
		return nil
	}
	victims := ids
	if len(own) > 0 {
		victims = own
	}
	batch := make(Batch, 0, n)
	nextEdge := 0
	inserted := 0
	perm := rng.Perm(len(edges))
	for len(batch) < n {
		switch rng.Intn(6) {
		case 0, 1: // insert edge between random live vertices
			from := ids[rng.Intn(len(ids))]
			to := ids[rng.Intn(len(ids))]
			if from == to {
				to = ids[(indexOf(ids, from)+1)%len(ids)]
			}
			batch = append(batch, Update{
				Op:   InsertEdge,
				Edge: Edge{From: from, Label: labels[rng.Intn(len(labels))], To: to},
			})
		case 2, 3: // delete a (distinct) existing edge
			if nextEdge >= len(perm) {
				continue
			}
			batch = append(batch, Update{Op: DeleteEdge, Edge: edges[perm[nextEdge]]})
			nextEdge++
		case 4: // insert a vertex and wire it in
			typ := ""
			if len(types) > 0 {
				typ = types[rng.Intn(len(types))]
			}
			label := typ + mixedMark + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
			batch = append(batch, Update{Op: InsertVertex, Label: label, Type: typ})
			// Vertex ids are allocated sequentially, so the id the new
			// vertex will receive at Apply time is predictable; wire it to
			// a random live vertex so the newcomer is reachable. If a
			// shrinker later drops the InsertVertex, Apply skips the edge
			// (its endpoint is not live) instead of failing.
			predicted := VertexID(g.MaxVertexID() + inserted)
			inserted++
			batch = append(batch, Update{
				Op:   InsertEdge,
				Edge: Edge{From: ids[rng.Intn(len(ids))], Label: labels[rng.Intn(len(labels))], To: predicted},
			})
		default: // delete a vertex: one the stream inserted, if any
			batch = append(batch, Update{
				Op:   DeleteVertex,
				Edge: Edge{From: victims[rng.Intn(len(victims))]},
			})
		}
	}
	return batch
}

// mixedMark is what RandomMixedBatch puts into the label of every vertex
// it inserts, and how it recognises them later.
const mixedMark = " new "

func indexOf(ids []VertexID, v VertexID) int {
	for i, id := range ids {
		if id == v {
			return i
		}
	}
	return 0
}
