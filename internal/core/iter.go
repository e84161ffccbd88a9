// Iterator forms of the semantic joins. Enrichment and link joins are
// input-side pipeline breakers: HER matching and match restriction
// need whole relations, so the sources are gathered at Open — but the
// joined output streams batch-at-a-time into the surrounding
// relational plan, and the static enrichment join pipelines end to end
// when its source schema is known at plan time.
package core

import (
	"context"
	"fmt"
	"time"

	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// StaticEnrichIter is the pipelined form of StaticEnrich: the paper's
// three-way reduction S ⋈ f(D,G) ⋈ h(D,G) as a streaming natural-join
// chain over the pre-computed relations, projected to S's attributes
// plus vid plus A. When src's schema is unknown before Open (an opaque
// upstream semantic join) it falls back to materialising src first.
func (m *Materialized) StaticEnrichIter(base string, src rel.Iterator, a []string) (rel.Iterator, error) {
	return m.View().StaticEnrichIter(base, src, a)
}

// StaticEnrichIter is Materialized.StaticEnrichIter over this view's
// state of the base.
func (v *View) StaticEnrichIter(base string, src rel.Iterator, a []string) (rel.Iterator, error) {
	b := v.Base(base)
	if b == nil {
		return nil, fmt.Errorf("core: no materialisation for base %q", base)
	}
	if !v.WellBehavedKeywords(base, a) {
		return nil, fmt.Errorf("core: keywords %v not covered by AR(%s)=%v", a, base, b.Spec.AR)
	}
	s := src.Schema()
	if s == nil {
		return rel.NewApply("e-join static "+base, []rel.Iterator{src},
			func(ctx context.Context, in []*rel.Relation) (*rel.Relation, string, error) {
				it, err := v.StaticEnrichIter(base, rel.NewScan(in[0]), a)
				if err != nil {
					return nil, "", err
				}
				r, err := rel.Materialize(ctx, it)
				return r, "", err
			}), nil
	}
	// Both pre-computed relations hash once at Open inside the natural
	// joins, match rows gather column-wise, and the projection is a
	// column-header pick.
	j := b.read().enrich(src)
	// Project to S's attributes plus vid plus the requested keywords,
	// deduplicating: S may already carry vid or some keyword column from
	// an earlier (chained) enrichment join.
	cols := append([]string(nil), s.AttrNames()...)
	seen := map[string]bool{}
	for _, c := range cols {
		seen[c] = true
	}
	for _, c := range append([]string{"vid"}, a...) {
		if !seen[c] {
			seen[c] = true
			cols = append(cols, c)
		}
	}
	return rel.NewProject(j, cols...), nil
}

// StaticLinkIter is the pipelined form of StaticLink: both sides are
// gathered at Open (match restriction needs whole relations), the
// joined pairs stream out, and the operator's plan note records
// whether the gL connectivity cache answered the query: an entry under
// cacheKey computed at the mutation count of the graph read and the
// generations of both bases' states is a hit, anything else a miss. The
// per-vertex BFS fan-out runs on par workers (par <= 0 means
// GOMAXPROCS); the gL cache is singleflighted, so concurrent queries
// sharing cacheKey compute the connectivity set exactly once.
func (m *Materialized) StaticLinkIter(base1 string, s1 rel.Iterator, base2 string, s2 rel.Iterator, k, par int, cacheKey string) rel.Iterator {
	return m.View().StaticLinkIter(base1, s1, base2, s2, k, par, cacheKey)
}

// StaticLinkIter is Materialized.StaticLinkIter over this view's graph
// and states. The gL cache is the materialisation's, shared by every
// view: a view that is no longer the newest finds the entries of newer
// ones stamped otherwise, computes its own connectivity and leaves it in
// their place.
func (v *View) StaticLinkIter(base1 string, s1 rel.Iterator, base2 string, s2 rel.Iterator, k, par int, cacheKey string) rel.Iterator {
	m := v.m
	return rel.NewGenerate("l-join static", []rel.Iterator{s1, s2},
		func(ctx context.Context, in []*rel.Batch) (rel.Generated, error) {
			b1, b2 := v.Base(base1), v.Base(base2)
			if b1 == nil || b2 == nil {
				return rel.Generated{}, fmt.Errorf("core: no materialisation for %q/%q", base1, base2)
			}
			r1, r2 := in[0], in[1]
			m1 := restrictMatches(b1, r1)
			m2 := restrictMatches(b2, r2)
			if cacheKey != "" {
				stamp := glStamp{v.G.Mutations(), b1.read().gen, b2.read().gen}
				pairs, hit, err := m.gl.getOrCompute(ctx, cacheKey, stamp, func() (glPairs, error) {
					computeStart := time.Now()
					out, err := connectedPairs(ctx, v.G, m1, m2, k, par)
					obs.TraceFromContext(ctx).Phase("gl_compute", computeStart)
					return out, err
				})
				if err != nil {
					return rel.Generated{}, err
				}
				g, err := linkGenerated(r1, r2, m1, m2, func(a, b her.Match) bool {
					return pairs[[2]graph.VertexID{a.Vertex, b.Vertex}]
				})
				if hit {
					g.Note = "gL hit"
				} else {
					g.Note = "gL miss, populated"
					g.Workers = normPar(par)
				}
				return g, err
			}
			reach, workers, err := reachSets(ctx, v.G, m1, k, par)
			if err != nil {
				return rel.Generated{}, err
			}
			g, err := linkGenerated(r1, r2, m1, m2, func(a, b her.Match) bool {
				return reach.connected(a.Vertex, b.Vertex)
			})
			g.Note = "gL bypass"
			g.Workers = workers
			return g, err
		})
}

// LinkJoinIter is the pipelined conceptual-level link join: HER runs
// on the gathered sides at Open, pair connectivity streams out.
// The per-vertex BFS fan-out runs on par workers (par <= 0 means
// GOMAXPROCS).
func LinkJoinIter(g *graph.Graph, matcher her.Matcher, k, par int, s1, s2 rel.Iterator) rel.Iterator {
	return rel.NewGenerate("l-join online", []rel.Iterator{s1, s2},
		func(ctx context.Context, in []*rel.Batch) (rel.Generated, error) {
			matchStart := time.Now()
			m1 := matchBatch(matcher, in[0], g)
			m2 := matchBatch(matcher, in[1], g)
			obs.FromContext(ctx).Histogram("core_her_match_seconds", nil).
				Observe(time.Since(matchStart).Seconds())
			obs.TraceFromContext(ctx).Phase("her_match", matchStart)
			reach, workers, err := reachSets(ctx, g, m1, k, par)
			if err != nil {
				return rel.Generated{}, err
			}
			gen, err := linkGenerated(in[0], in[1], m1, m2, func(a, b her.Match) bool {
				return reach.connected(a.Vertex, b.Vertex)
			})
			gen.Workers = workers
			return gen, err
		})
}

// BaselineEnrichIter wraps the conceptual-level EnrichmentJoin
// (HER+RExt at query time) as an operator. The context flows through
// so the HER/RExt stages attribute their phases to the active trace.
func BaselineEnrichIter(g *graph.Graph, models Models, matcher her.Matcher, keywords []string, cfg Config, src rel.Iterator) rel.Iterator {
	return rel.NewApply("e-join baseline", []rel.Iterator{src},
		func(ctx context.Context, in []*rel.Relation) (*rel.Relation, string, error) {
			out, err := EnrichmentJoinContext(ctx, in[0], g, models, matcher, keywords, cfg)
			return out, "HER+RExt online", err
		})
}

// HeuristicEnrichIter wraps HeuristicJoiner.Enrich; the gτ row type
// chosen at Open becomes the operator's plan note.
func HeuristicEnrichIter(h *HeuristicJoiner, src rel.Iterator, a []string) rel.Iterator {
	return rel.NewApply("e-join heuristic", []rel.Iterator{src},
		func(ctx context.Context, in []*rel.Relation) (*rel.Relation, string, error) {
			out, typ, err := h.Enrich(in[0], a)
			return out, "gτ(" + typ + ")", err
		})
}

// HeuristicLinkIter wraps HeuristicJoiner.Link.
func HeuristicLinkIter(h *HeuristicJoiner, g *graph.Graph, k int, s1, s2 rel.Iterator) rel.Iterator {
	return rel.NewApply("l-join heuristic", []rel.Iterator{s1, s2},
		func(ctx context.Context, in []*rel.Relation) (*rel.Relation, string, error) {
			out, err := h.Link(in[0], in[1], g, k)
			return out, "gτ alignment", err
		})
}

// matchBatch runs HER over the live rows of b, re-pointing each
// match's TupleIdx at the physical row of b it came from.
func matchBatch(matcher her.Matcher, b *rel.Batch, g *graph.Graph) []her.Match {
	ms := matcher.Match(b.Relation(), g)
	for i := range ms {
		ms[i].TupleIdx = b.RowIdx(ms[i].TupleIdx)
	}
	return ms
}

// linkGenerated streams the m1 × m2 pairs passing connected, under the
// qualified two-sided output schema shared by every link-join variant.
// Matches carry physical row indexes into s1 and s2; each output batch
// gathers both sides' columns by index vector, DefaultBatchSize pairs
// at a time.
func linkGenerated(s1, s2 *rel.Batch, m1, m2 []her.Match, connected func(a, b her.Match) bool) (rel.Generated, error) {
	n1, name2 := s1.Schema().Name, s2.Schema().Name
	if name2 == n1 {
		name2 += "2"
	}
	q1 := s1.Schema().Qualified(n1)
	q2 := s2.Schema().Qualified(name2)
	attrs := append(append([]rel.Attribute(nil), q1.Attrs...), q2.Attrs...)
	schema, err := rel.TrySchema(n1+"_l_"+name2, "", attrs...)
	if err != nil {
		return rel.Generated{}, err
	}
	i, j := 0, 0
	pull := func() (*rel.Batch, error) {
		var rows1, rows2 []int32
		for ; i < len(m1) && len(rows1) < rel.DefaultBatchSize; i, j = i+1, 0 {
			for ; j < len(m2) && len(rows1) < rel.DefaultBatchSize; j++ {
				if connected(m1[i], m2[j]) {
					rows1 = append(rows1, int32(m1[i].TupleIdx))
					rows2 = append(rows2, int32(m2[j].TupleIdx))
				}
			}
			if j < len(m2) {
				break // batch full mid-row: resume here
			}
		}
		if len(rows1) == 0 {
			return nil, nil
		}
		out := rel.NewBatch(schema)
		out.Gather(0, s1, rows1)
		out.Gather(s1.NumCols(), s2, rows2)
		return out, nil
	}
	return rel.Generated{Schema: schema, Pull: pull}, nil
}
