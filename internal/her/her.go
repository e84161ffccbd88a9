// Package her implements Heterogeneous Entity Resolution: the black-box
// function f(S,G) of §II-B that pairs tuples of a relation S with vertices
// of a graph G referring to the same real-world entity. The paper plugs in
// existing systems (JedAI, parametric simulation, MAGNN, ...); this
// package provides a blocking + weighted-similarity matcher with the same
// interface, plus a noise wrapper used to study cascading HER error
// (Exp-2(c), Fig 5(g)).
package her

import (
	"sort"

	"semjoin/internal/embed"
	"semjoin/internal/graph"
	"semjoin/internal/rel"
)

// Match pairs one tuple of S (by index and tuple id) with one vertex of G.
type Match struct {
	TupleIdx int
	TID      rel.Value
	Vertex   graph.VertexID
	Score    float64
}

// Matcher computes the HER match relation f(S,G).
type Matcher interface {
	Match(s *rel.Relation, g *graph.Graph) []Match
}

// Config parameterises the similarity matcher.
type Config struct {
	// Threshold is the minimum similarity for a match (default 0.2).
	Threshold float64
	// TypeFilter restricts candidate vertices to one type; "" matches all.
	TypeFilter string
	// MaxCandidates caps the blocking candidates scored per tuple
	// (default 64).
	MaxCandidates int
	// OneToOne enforces that each vertex matches at most one tuple
	// (greedy by score).
	OneToOne bool
}

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = 0.2
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 64
	}
	return c
}

// SimilarityMatcher is a JedAI-style rule-based matcher: token blocking on
// vertex labels and 1-hop neighbourhood labels, scored by weighted token
// overlap between a tuple's attribute values and a vertex's "document"
// (its label plus the labels one hop away, which is where graph entities
// keep properties that relations keep in columns).
type SimilarityMatcher struct {
	cfg Config
}

// NewSimilarityMatcher returns a matcher with the given configuration.
func NewSimilarityMatcher(cfg Config) *SimilarityMatcher {
	return &SimilarityMatcher{cfg: cfg.withDefaults()}
}

// vertexDoc is the token profile of one candidate vertex.
type vertexDoc struct {
	id     graph.VertexID
	labels map[string]float64 // token -> weight (own label 2, neighbour 1)
}

// Match computes f(S,G).
func (m *SimilarityMatcher) Match(s *rel.Relation, g *graph.Graph) []Match {
	docs, block := m.buildDocs(g)
	keyCol := s.Schema.KeyCol()
	var out []Match
	for ti, t := range s.Tuples {
		// Tuple token multiset.
		toks := map[string]float64{}
		for ci, v := range t {
			if v.IsNull() {
				continue
			}
			w := 1.0
			if ci == keyCol {
				w = 2.0
			}
			for _, tok := range embed.Tokenize(v.String()) {
				toks[tok] += w
			}
		}
		if len(toks) == 0 {
			continue
		}
		// Blocking: candidates share at least one token.
		candSet := map[int]int{}
		for tok := range toks {
			for _, di := range block[tok] {
				candSet[di]++
			}
		}
		type cand struct {
			di      int
			overlap int
		}
		cands := make([]cand, 0, len(candSet))
		for di, ov := range candSet {
			cands = append(cands, cand{di, ov})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].overlap != cands[j].overlap {
				return cands[i].overlap > cands[j].overlap
			}
			return docs[cands[i].di].id < docs[cands[j].di].id
		})
		if len(cands) > m.cfg.MaxCandidates {
			cands = cands[:m.cfg.MaxCandidates]
		}
		best, bestScore := -1, m.cfg.Threshold
		for _, c := range cands {
			sc := score(toks, docs[c.di].labels)
			if sc > bestScore || (sc == bestScore && best >= 0 && docs[c.di].id < docs[best].id) {
				best, bestScore = c.di, sc
			}
		}
		if best < 0 {
			continue
		}
		tid := rel.Null
		if keyCol >= 0 {
			tid = t[keyCol]
		}
		out = append(out, Match{TupleIdx: ti, TID: tid, Vertex: docs[best].id, Score: bestScore})
	}
	if m.cfg.OneToOne {
		out = enforceOneToOne(out)
	}
	return out
}

// buildDocs profiles every candidate vertex and builds the token block
// index.
func (m *SimilarityMatcher) buildDocs(g *graph.Graph) ([]vertexDoc, map[string][]int) {
	var docs []vertexDoc
	block := map[string][]int{}
	add := func(v graph.Vertex) {
		doc := vertexDoc{id: v.ID, labels: map[string]float64{}}
		for _, tok := range embed.Tokenize(v.Label) {
			doc.labels[tok] += 2
		}
		for _, he := range g.Out(v.ID) {
			for _, tok := range embed.Tokenize(g.Label(he.To)) {
				doc.labels[tok]++
			}
		}
		for _, he := range g.In(v.ID) {
			for _, tok := range embed.Tokenize(g.Label(he.To)) {
				doc.labels[tok] += 0.5
			}
		}
		if len(doc.labels) == 0 {
			return
		}
		di := len(docs)
		docs = append(docs, doc)
		for tok := range doc.labels {
			block[tok] = append(block[tok], di)
		}
	}
	if m.cfg.TypeFilter != "" {
		for _, id := range g.VerticesOfType(m.cfg.TypeFilter) {
			add(g.Vertex(id))
		}
	} else {
		g.Vertices(add)
	}
	return docs, block
}

// score is the weighted token overlap normalised by the tuple weight mass
// (how much of the tuple's information the vertex document covers). A hit
// is discounted by where the token lives in the document: a vertex's own
// label carries full evidence, a neighbour's label half — otherwise a hub
// (a company listing its products) ties with the entity itself on the
// entity's own name tokens.
func score(tuple map[string]float64, doc map[string]float64) float64 {
	var hit, total float64
	for tok, w := range tuple {
		total += w
		if dw, ok := doc[tok]; ok {
			f := dw / 2 // own-label tokens have weight 2 → factor 1
			if f > 1 {
				f = 1
			}
			hit += w * f
		}
	}
	if total == 0 {
		return 0
	}
	return hit / total
}

// enforceOneToOne keeps, for each vertex, only the highest-scoring match.
func enforceOneToOne(ms []Match) []Match {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Score != ms[j].Score {
			return ms[i].Score > ms[j].Score
		}
		return ms[i].TupleIdx < ms[j].TupleIdx
	})
	usedV := map[graph.VertexID]bool{}
	usedT := map[int]bool{}
	var out []Match
	for _, m := range ms {
		if usedV[m.Vertex] || usedT[m.TupleIdx] {
			continue
		}
		usedV[m.Vertex] = true
		usedT[m.TupleIdx] = true
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TupleIdx < out[j].TupleIdx })
	return out
}
