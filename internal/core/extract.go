package core

import (
	"fmt"
	"sort"
	"time"

	"semjoin/internal/embed"
	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/mat"
	"semjoin/internal/rel"
)

// Extract is phase II of RExt — Algorithm 1, "attribute extraction via
// pattern matching". For each match (ti, vi) in f(S,G) it reuses (or
// computes) the selected paths Π from vi, matches them against every
// pattern cluster Pj, and assigns θj = L(ρ.vl) of the conforming path
// whose end label maximises cos(x_{L(ρ.vl)}, x_{Aj}); "null" if no
// pattern in Pj matches. The extracted relation DG has schema
// RG(vid, A1, ..., Am). Calling it before a successful Discover (or
// without a scheme via ExtractWithScheme) is an ordering error,
// reported rather than panicked.
func (e *Extractor) Extract() (*rel.Relation, error) {
	if e.initErr != nil {
		return nil, e.initErr
	}
	if e.scheme == nil {
		return nil, fmt.Errorf("core: Extract before Discover")
	}
	stageStart := time.Now()
	defer func() { e.timings.Extraction = time.Since(stageStart).Seconds() }()
	dg := rel.NewRelation(e.scheme.Schema)
	seen := map[graph.VertexID]bool{}
	var order []graph.VertexID
	for _, m := range e.matches {
		if !seen[m.Vertex] && e.g.Live(m.Vertex) {
			seen[m.Vertex] = true
			order = append(order, m.Vertex)
		}
	}
	rows := make([]rel.Tuple, len(order))
	e.parallelFor(len(order), walkGrain, func(i int) {
		rows[i] = e.extractTuple(order[i])
	})
	dg.Tuples = rows
	e.install(e.s, e.matches, dg)
	return dg, nil
}

// extractTuple computes one row of DG for entity vertex v.
func (e *Extractor) extractTuple(v graph.VertexID) rel.Tuple {
	paths := e.pathsFor(v)
	row := make(rel.Tuple, 1+len(e.scheme.Clusters))
	row[0] = rel.I(int64(v))
	for j, pc := range e.scheme.Clusters {
		row[1+j] = e.extractValue(paths, pc)
	}
	return row
}

// extractValue is the Extract function of Algorithm 1 for one cluster.
func (e *Extractor) extractValue(paths []graph.Path, pc PatternCluster) rel.Value {
	best := rel.Null
	bestScore := -2.0
	for _, p := range paths {
		if !pc.patKeys[patternKeyOf(p)] {
			continue
		}
		label := e.g.Label(p.End())
		score := mat.Cosine(e.valueVec(label), pc.attrVec)
		if score > bestScore {
			bestScore = score
			best = rel.S(label)
		}
	}
	return best
}

// ClearPathCache discards all cached selected paths (ablation 6 of
// DESIGN.md: Algorithm 1 without the discovery-time cache re-selects
// paths for every match).
func (e *Extractor) ClearPathCache() {
	e.mu.Lock()
	e.pathCache = make(map[graph.VertexID][]graph.Path)
	e.mu.Unlock()
}

// pathsFor returns the cached selected paths for v, computing them on
// demand (Algorithm 1 "caches and reuses the paths found during pattern
// discovery").
func (e *Extractor) pathsFor(v graph.VertexID) []graph.Path {
	e.mu.Lock()
	paths, ok := e.pathCache[v]
	e.mu.Unlock()
	if ok {
		return paths
	}
	paths = e.selectPaths(v)
	e.mu.Lock()
	e.pathCache[v] = paths
	e.mu.Unlock()
	return paths
}

// ExtractWithScheme runs Algorithm 1 against a previously discovered
// scheme — e.g. one computed on an earlier graph version or shipped with a
// catalog — skipping pattern discovery entirely.
func (e *Extractor) ExtractWithScheme(s *rel.Relation, scheme *Scheme, matches []her.Match) (*rel.Relation, error) {
	e.scheme = scheme
	e.install(s, matches, nil)
	return e.Extract()
}

// TypeExtraction is the result of extraction without reference tuples
// (§III-A "Extraction without reference tuples"): for one vertex type τ,
// the reference schema Rτ and instance gτ(G).
type TypeExtraction struct {
	Type     string
	Scheme   *Scheme
	Relation *rel.Relation // gτ(G), schema Rτ(vid, A1, ..., Am)
}

// ExtractForType runs RExt with graph G as sole input for the vertices of
// one type τ. The second ranking term vanishes (there is no S); keywords
// come from Aτ (user-provided or profiled from the graph).
func ExtractForType(g *graph.Graph, models Models, typ string, keywords []string, cfg Config) (*TypeExtraction, error) {
	cfg.Keywords = keywords
	ex := NewExtractor(g, models, cfg)
	ids := g.VerticesOfType(typ)
	matches := make([]her.Match, len(ids))
	for i, id := range ids {
		matches[i] = her.Match{TupleIdx: -1, TID: rel.Null, Vertex: id, Score: 1}
	}
	if err := ex.Discover(nil, matches); err != nil {
		return nil, err
	}
	dg, err := ex.Extract()
	if err != nil {
		return nil, err
	}

	// Rτ carries the entity's own label alongside the extracted
	// attributes: the pairwise-ER step of heuristic joins needs identity
	// tokens to align query tuples with gτ rows (§IV-B step 2).
	attrs := append([]rel.Attribute{
		{Name: "vid", Type: rel.KindInt},
		{Name: "label", Type: rel.KindString},
	}, dg.Schema.Attrs[1:]...)
	labeled := rel.NewRelation(rel.NewSchema("g_"+typ, "vid", attrs...))
	vidCol := dg.Schema.Col("vid")
	for _, t := range dg.Tuples {
		nt := make(rel.Tuple, 0, len(t)+1)
		nt = append(nt, t[vidCol], rel.S(g.Label(graph.VertexID(t[vidCol].Int()))))
		nt = append(nt, t[1:]...)
		labeled.Insert(nt)
	}
	return &TypeExtraction{Type: typ, Scheme: ex.scheme, Relation: labeled}, nil
}

// FrequentLabels returns the topN most frequent vertex-label word tokens
// per vertex type plus all edge labels — the graph-derived half of the
// reference keyword lists of §II-B ("selected vertex and edge labels in
// G"), complementing query-log profiling (gsql.CollectKeywords).
func FrequentLabels(g *graph.Graph, topN int) map[string][]string {
	out := map[string][]string{}
	for _, typ := range g.Types() {
		counts := map[string]int{}
		for _, id := range g.VerticesOfType(typ) {
			for _, tok := range embed.Tokenize(g.Label(id)) {
				counts[tok]++
			}
		}
		type tc struct {
			t string
			n int
		}
		var list []tc
		for tok, n := range counts {
			list = append(list, tc{tok, n})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].n != list[j].n {
				return list[i].n > list[j].n
			}
			return list[i].t < list[j].t
		})
		if len(list) > topN {
			list = list[:topN]
		}
		toks := make([]string, len(list))
		for i, e := range list {
			toks[i] = e.t
		}
		out[typ] = toks
	}
	out[""] = g.EdgeLabels()
	return out
}

// ProfileGraph runs type extraction for every vertex type of a typed
// graph, producing the reference relations gτ(G) that heuristic joins and
// reference keyword lists rely on (§IV). Types with fewer than minVertices
// live vertices are skipped. keywordsByType supplies Aτ; types without an
// entry are skipped too.
func ProfileGraph(g *graph.Graph, models Models, keywordsByType map[string][]string, minVertices int, cfg Config) map[string]*TypeExtraction {
	out := map[string]*TypeExtraction{}
	types := g.Types()
	sort.Strings(types)
	for _, typ := range types {
		kws, ok := keywordsByType[typ]
		if !ok || len(kws) == 0 {
			continue
		}
		if len(g.VerticesOfType(typ)) < minVertices {
			continue
		}
		te, err := ExtractForType(g, models, typ, kws, cfg)
		if err != nil {
			continue
		}
		out[typ] = te
	}
	return out
}
