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

// enrich is the three-way natural join src ⋈ f(S,G) ⋈ h(S,G) over one
// state; src is S or a selection of it.
func (st *baseState) enrich(src rel.Iterator) rel.Iterator {
	return rel.NewNaturalJoin(rel.NewNaturalJoin(src, st.matchRel), st.result)
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
//
// A base may be attached to a DurableStore (Attach); its state, and the
// graph, are then whatever that store last published. A query reads
// through one View, which resolves every base and the graph once; a
// caller that reads more than one name does the same.
type Materialized struct {
	// g is the graph the bases were built over. It is what a View reads
	// while no store is attached; once one is, g is that store's working
	// graph (or, after a snapshot recovery, nobody's) and only names the
	// graph the catalog's aliases refer to (View.Resolve).
	g      *graph.Graph
	models Models
	cfg    Config

	bases map[string]*BaseMaterialization
	// stores are the attached stores by base name. graphStore, the last
	// attached, names the working graph a View reads the published
	// state of (View.G).
	stores     map[string]*DurableStore
	graphStore *DurableStore
	gl         *glCache
}

// BaseMaterialization holds the pre-computation for one base relation.
// The Extractor owns D, f(D,G) and h(D,G), which change together at its
// commit point; Spec.D and Extracted are the D and h(D,G) of one state.
//
// There are two kinds of value. One a DurableStore published
// (Version.Base) is immutable: Spec.D, Extracted and the f(D,G) the joins
// read beside them are the version's state, and Extractor is the store
// writer's — a reader may ask it what it measured (Timings, Scheme) and
// must not read state through it or update through it. Any other is the
// value its base was built with, and whoever holds it is the writer:
// updates go through Extractor, and the joins read the extractor's
// current state.
type BaseMaterialization struct {
	Spec      BaseSpec
	Extractor *Extractor
	Extracted *rel.Relation // h(D,G)
	// state is the published state; nil for a base no store publishes.
	state *baseState
}

// read returns the state the joins read: the one place that tells the
// two kinds apart.
func (b *BaseMaterialization) read() *baseState {
	if b.state != nil {
		return b.state
	}
	return b.Extractor.baseState
}

// Matches returns f(D,G) of the state b holds.
func (b *BaseMaterialization) Matches() []her.Match { return b.read().matches }

// MatchRelation returns f(D,G) of the state b holds as a relation
// joinable with D (see Extractor.MatchRelation).
func (b *BaseMaterialization) MatchRelation() *rel.Relation { return b.read().matchRel }

// AR returns the reference keywords for this base.
func (b *BaseMaterialization) AR() []string { return b.Spec.AR }

// BuildMaterialized runs the offline preprocessing for every base
// relation: HER matching and RExt extraction with keywords AR.
func BuildMaterialized(g *graph.Graph, models Models, specs map[string]BaseSpec, cfg Config) (*Materialized, error) {
	m := &Materialized{
		g: g, models: models, cfg: cfg,
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

// View is what one query reads: the graph and every base's state, each
// attached store's taken from the one version it had published when the
// view was made. A view never changes; a query that plans and drains
// against one view sees one state of each store however many updates
// commit meanwhile.
type View struct {
	m *Materialized
	// G is the graph: the published snapshot of the attached stores'
	// working graph, or the materialisation's own graph when no store is
	// attached.
	G   *graph.Graph
	seq uint64
	// pinned holds the version of each attached store, by base name.
	pinned map[string]*Version
}

// View resolves the current state once. A nil Materialized has a nil
// view, which knows no base and resolves every graph to itself.
func (m *Materialized) View() *View {
	if m == nil {
		return nil
	}
	v := &View{m: m, G: m.g}
	if len(m.stores) == 0 {
		return v
	}
	v.pinned = make(map[string]*Version, len(m.stores))
	// Stores opened over one working graph (cmd/gsql -data-dir opens one
	// per base) each publish it after their own updates only, so the
	// graph is the most advanced of their snapshots: the working graph as
	// the last update through any of them left it. A store that recovered
	// a graph of its own from a snapshot shares it with nobody; between
	// those the last attached decides.
	var g *graph.Graph
	for name, st := range m.stores {
		ver := st.Version()
		v.pinned[name] = ver
		v.seq += ver.Seq
		if st.g == m.graphStore.g && (g == nil || ver.G.Mutations() > g.Mutations()) {
			g = ver.G
		}
	}
	v.G = g
	return v
}

// Seq returns the number of logged updates the view contains: the WAL
// sequence number of the version it pinned, summed over the attached
// stores. With one store (DESIGN.md: one store per graph domain) that is
// the store's sequence number, and the view holds exactly the updates
// logged up to it. 0 when no store is attached.
func (v *View) Seq() uint64 {
	if v == nil {
		return 0
	}
	return v.seq
}

// Base returns the materialisation of a base as the view holds it, or
// nil.
func (v *View) Base(name string) *BaseMaterialization {
	if v == nil {
		return nil
	}
	if ver := v.pinned[name]; ver != nil {
		return ver.Base
	}
	return v.m.bases[name]
}

// Relation returns D of a base as the store it is attached to published
// it. A base no store publishes has none here: its D is the catalog's
// to hold.
func (v *View) Relation(name string) *rel.Relation {
	if v == nil || v.pinned[name] == nil {
		return nil
	}
	return v.pinned[name].Base.Spec.D
}

// Resolve maps a graph a catalog holds to the graph to read: the view's
// for the graph the materialisation was built over (whatever name the
// catalog gives it), g itself for any other.
func (v *View) Resolve(g *graph.Graph) *graph.Graph {
	if v != nil && g != nil && g == v.m.g {
		return v.G
	}
	return g
}

// Base returns the current materialisation of one base, or nil. Reading
// two bases, or a base and the graph, takes a View: two calls here can
// straddle an update.
func (m *Materialized) Base(name string) *BaseMaterialization {
	if st := m.stores[name]; st != nil {
		return st.Version().Base
	}
	return m.bases[name]
}

// SetBase replaces (or installs) the materialisation for one base that
// no store publishes.
func (m *Materialized) SetBase(name string, b *BaseMaterialization) { m.bases[name] = b }

// Attach binds a base to the durable store that now owns its state:
// views made from here on read the base, and the graph, from what the
// store has published. The gSQL OPEN statement calls it. Stores that
// share a working graph are not kept coherent beyond the graph itself: an
// update through one re-extracts that one's base only (DESIGN.md
// "Durability domains are per base").
func (m *Materialized) Attach(name string, st *DurableStore) {
	if m.stores == nil {
		m.stores = map[string]*DurableStore{}
	}
	m.stores[name] = st
	m.graphStore = st
}

// WellBehavedKeywords reports whether A ⊆ AR for the named base relation
// (condition (1) of well-behaved enrichment joins).
func (v *View) WellBehavedKeywords(base string, a []string) bool {
	b := v.Base(base)
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
	byTID := b.read().tidMatch
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
