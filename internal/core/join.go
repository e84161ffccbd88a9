package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// matchRelation materialises HER matches as a relation joinable with S by
// natural join: its first column carries S's key attribute name, its
// second is vid.
func matchRelation(s *rel.Relation, matches []her.Match) *rel.Relation {
	key := s.Schema.Key
	if key == "" {
		key = "tid"
	}
	schema := rel.NewSchema(s.Schema.Name+"_match", key,
		rel.Attribute{Name: key, Type: rel.KindString},
		rel.Attribute{Name: "vid", Type: rel.KindInt},
	)
	r := rel.NewRelation(schema)
	for _, m := range matches {
		r.InsertVals(m.TID, rel.I(int64(m.Vertex)))
	}
	return r
}

// EnrichmentJoin computes the conceptual-level exact enrichment join
// S ⋈_A G of §II-B: HER matches tuples of S to vertices of G, RExt
// extracts the relation h(S,G) for keywords A with path bound cfg.K, and
// the result is the three-way natural join S ⋈ f(S,G) ⋈ h(S,G). This is
// the online baseline of §IV-A that invokes HER and RExt at query time.
func EnrichmentJoin(s *rel.Relation, g *graph.Graph, models Models, matcher her.Matcher, keywords []string, cfg Config) (*rel.Relation, error) {
	return EnrichmentJoinContext(context.Background(), s, g, models, matcher, keywords, cfg)
}

// EnrichmentJoinContext is EnrichmentJoin with phase attribution: when
// ctx carries a trace (obs.ContextWithTrace), the HER matching and
// RExt extraction stages report themselves as "her_match" and
// "rext_extract" phases of that trace.
func EnrichmentJoinContext(ctx context.Context, s *rel.Relation, g *graph.Graph, models Models, matcher her.Matcher, keywords []string, cfg Config) (*rel.Relation, error) {
	if s.Schema.Key == "" {
		// Unkeyed intermediate results (e.g. Example 10's Q′, which joins
		// two base relations) get a synthetic row id so the three-way
		// reduction still works; HER matches are re-keyed accordingly.
		matches := timedMatch(ctx, cfg.Obs, matcher, s, g)
		keyed := withRowIDs(s)
		for i := range matches {
			matches[i].TID = rel.I(int64(matches[i].TupleIdx))
		}
		return enrichMatched(ctx, keyed, g, models, keywords, cfg, matches)
	}
	return enrichMatched(ctx, s, g, models, keywords, cfg, timedMatch(ctx, cfg.Obs, matcher, s, g))
}

// timedMatch runs HER matching, reporting its latency to reg and, when
// ctx carries a trace, as a "her_match" phase.
func timedMatch(ctx context.Context, reg *obs.Registry, matcher her.Matcher, s *rel.Relation, g *graph.Graph) []her.Match {
	start := time.Now()
	matches := matcher.Match(s, g)
	reg.Histogram("core_her_match_seconds", nil).Observe(time.Since(start).Seconds())
	obs.TraceFromContext(ctx).Phase("her_match", start)
	return matches
}

// withRowIDs copies s adding a "_rid" key column holding the row index.
func withRowIDs(s *rel.Relation) *rel.Relation {
	attrs := append([]rel.Attribute{{Name: "_rid", Type: rel.KindInt}}, s.Schema.Attrs...)
	out := rel.NewRelation(rel.NewSchema(s.Schema.Name, "_rid", attrs...))
	for i, t := range s.Tuples {
		nt := make(rel.Tuple, 0, len(t)+1)
		nt = append(nt, rel.I(int64(i)))
		nt = append(nt, t...)
		out.Tuples = append(out.Tuples, nt)
	}
	return out
}

// enrichMatched finishes an enrichment join from pre-computed matches.
func enrichMatched(ctx context.Context, s *rel.Relation, g *graph.Graph, models Models, keywords []string, cfg Config, matches []her.Match) (*rel.Relation, error) {
	cfg.Keywords = keywords
	if len(matches) == 0 {
		empty := rel.NewSchema(s.Schema.Name+"_e", s.Schema.Key,
			append(append([]rel.Attribute(nil), s.Schema.Attrs...),
				rel.Attribute{Name: "vid", Type: rel.KindInt})...)
		return rel.NewRelation(empty), nil
	}
	ex := NewExtractor(g, models, cfg)
	extractStart := time.Now()
	_, err := ex.Run(s, matches)
	obs.TraceFromContext(ctx).Phase("rext_extract", extractStart)
	if err != nil {
		return nil, err
	}
	return ex.Enriched()
}

// enrich is the three-way natural join src ⋈ f(S,G) ⋈ h(S,G) over the
// extractor's current state; src is S or a selection of it.
func (e *Extractor) enrich(src rel.Iterator) rel.Iterator {
	return rel.NewNaturalJoin(rel.NewNaturalJoin(src, e.matchRel), e.result)
}

// Enriched returns every matched tuple of S with its vertex id and
// extracted attributes.
func (e *Extractor) Enriched() (*rel.Relation, error) {
	return rel.Materialize(nil, e.enrich(rel.NewScan(e.s)))
}

// LinkJoin computes the exact link join S1 ⋈_G S2 of §II-B: tuples t1, t2
// join iff vertices matching them are within k hops in G. Matching uses
// the supplied HER matcher on both sides; connectivity uses BFS from each
// distinct left vertex (equivalent to the paper's bidirectional search,
// and cheaper when one side repeats vertices). A schema collision
// between the two sides' qualified names surfaces as an error.
func LinkJoin(s1, s2 *rel.Relation, g *graph.Graph, matcher her.Matcher, k int) (*rel.Relation, error) {
	return rel.Materialize(nil, LinkJoinIter(g, matcher, k, 0, rel.NewScan(s1), rel.NewScan(s2)))
}

// BaseSpec describes one base relation to pre-process for static joins.
type BaseSpec struct {
	D       *rel.Relation
	AR      []string    // reference keyword list for this schema
	Matcher her.Matcher // HER used offline
}

// Materialized is the offline pre-computation of §IV-A: for every base
// relation D of the database it stores the HER match relation f(D,G), the
// extracted relation h(D,G) for the reference keywords AR, and a cache gL
// of link-join connectivity relations — so well-behaved gSQL queries run
// as plain relational joins without invoking HER or RExt online.
type Materialized struct {
	G      *graph.Graph
	models Models
	cfg    Config

	bases map[string]*BaseMaterialization
	gl    *glCache
}

// BaseMaterialization holds the pre-computation for one base relation.
// The Extractor owns the state — D, f(D,G) and h(D,G) change together
// at its commit point, and the joins read them from it. Spec.D and
// Extracted publish the extractor's D and h(D,G) to callers outside
// the package; a DurableStore rebinds them after every update.
type BaseMaterialization struct {
	Spec      BaseSpec
	Extractor *Extractor
	Extracted *rel.Relation // h(D,G)
}

// AR returns the reference keywords for this base.
func (b *BaseMaterialization) AR() []string { return b.Spec.AR }

// BuildMaterialized runs the offline preprocessing for every base
// relation: HER matching and RExt extraction with keywords AR.
func BuildMaterialized(g *graph.Graph, models Models, specs map[string]BaseSpec, cfg Config) (*Materialized, error) {
	m := &Materialized{
		G: g, models: models, cfg: cfg,
		bases: map[string]*BaseMaterialization{},
		gl:    newGLCache(),
	}
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := specs[name]
		c := cfg
		c.Keywords = spec.AR
		c.MaxAttrs = len(spec.AR)
		ex := NewExtractor(g, models, c)
		dg, err := ex.Run(spec.D, spec.Matcher.Match(spec.D, g))
		if err != nil {
			return nil, fmt.Errorf("core: materialising %s: %w", name, err)
		}
		m.bases[name] = &BaseMaterialization{Spec: spec, Extractor: ex, Extracted: dg}
	}
	return m, nil
}

// Base returns the materialisation for a base relation, or nil.
func (m *Materialized) Base(name string) *BaseMaterialization { return m.bases[name] }

// SetBase replaces (or installs) the materialisation for one base —
// the gSQL OPEN statement uses it to rebind a base to its recovered
// durable state.
func (m *Materialized) SetBase(name string, b *BaseMaterialization) { m.bases[name] = b }

// WellBehavedKeywords reports whether A ⊆ AR for the named base relation
// (condition (1) of well-behaved enrichment joins).
func (m *Materialized) WellBehavedKeywords(base string, a []string) bool {
	b := m.bases[base]
	if b == nil {
		return false
	}
	have := map[string]bool{}
	for _, kw := range b.Spec.AR {
		have[kw] = true
	}
	for _, kw := range a {
		if !have[kw] {
			return false
		}
	}
	return true
}

// StaticEnrich answers a well-behaved enrichment join S ⋈_A G where S is
// a (subset of a) base relation: the three-way natural join
// S ⋈ f(D,G) ⋈ h(D,G) over the pre-computed relations, projected to S's
// attributes plus vid plus A. Neither HER nor RExt runs.
func (m *Materialized) StaticEnrich(base string, s *rel.Relation, a []string) (*rel.Relation, error) {
	it, err := m.StaticEnrichIter(base, rel.NewScan(s), a)
	if err != nil {
		return nil, err
	}
	return rel.Materialize(nil, it)
}

// LinkCacheKey builds the gL cache key for a pair of predicate
// signatures over two base relations (§IV-A: gL is specified by predicate
// sets P and P′, the selection conditions of the two sub-queries).
func LinkCacheKey(base1, pred1, base2, pred2 string, k int) string {
	return fmt.Sprintf("%s[%s]|%s[%s]|k=%d", base1, pred1, base2, pred2, k)
}

// StaticLink answers a link join S1 ⋈_G S2 over subsets of base
// relations using pre-computed matches; the connectivity relation is
// cached under cacheKey so repeated queries with the same predicates are
// answered without traversing G. BFS fan-out runs at the default
// (GOMAXPROCS) parallelism; use StaticLinkIter for an explicit degree.
func (m *Materialized) StaticLink(base1 string, s1 *rel.Relation, base2 string, s2 *rel.Relation, k int, cacheKey string) (*rel.Relation, error) {
	return rel.Materialize(nil,
		m.StaticLinkIter(base1, rel.NewScan(s1), base2, rel.NewScan(s2), k, 0, cacheKey))
}

// GLCacheSize returns the number of cached connectivity relations and
// their total tuple count.
func (m *Materialized) GLCacheSize() (relations, tuples int) {
	return m.gl.stats()
}

// ClearGLCache discards every completed gL connectivity set, returning
// the cache to its cold state (in-flight computations are left to
// finish and are dropped on completion by normal eviction pressure).
// No writer needs it — an entry derived from an older graph or base
// state is a miss on its own; metamorphic tests use it to compare
// cache-cold against cache-warm executions of the same query on one
// materialisation.
func (m *Materialized) ClearGLCache() {
	m.gl.clear()
}

// restrictMatches narrows a base's current matches to the live rows of
// s (a selection over the base relation), re-pointing TupleIdx at the
// physical row of s.
func restrictMatches(b *BaseMaterialization, s *rel.Batch) []her.Match {
	keyCol := s.Schema().KeyCol()
	if keyCol < 0 {
		return nil
	}
	byTID := b.Extractor.tidMatch
	var out []her.Match
	keys := s.Col(keyCol)
	for i, n := 0, s.Rows(); i < n; i++ {
		r := s.RowIdx(i)
		if m, ok := byTID[keys.ValueAt(r).String()]; ok {
			m.TupleIdx = r
			out = append(out, m)
		}
	}
	return out
}

// NormalizeAttr lowercases and strips non-alphanumerics for schema-level
// attribute matching in heuristic joins.
func NormalizeAttr(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	return b.String()
}
