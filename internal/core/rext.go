package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semjoin/internal/cluster"
	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/mat"
	"semjoin/internal/nn"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// Config parameterises RExt (§III-A). Zero fields take defaults.
type Config struct {
	// K bounds path length (default 3).
	K int
	// H is the number of KMC clusters (default 30).
	H int
	// Keywords is the user-interest set A: the attribute names of the
	// extracted schema. Required.
	Keywords []string
	// Exemplars are additional values that exemplify the attributes of
	// interest (§II-B: "users may provide not only potential attribute
	// names but also values"). They strengthen the third ranking term but
	// never become attribute names.
	Exemplars []string
	// MaxAttrs is m, the number of attributes selected for RG
	// (default: number of distinct keywords, capped at H).
	MaxAttrs int
	// MaxPathsPerEntity caps the greedy walks started per entity (one per
	// incident edge, like the paper) to keep dense vertices tractable
	// (default 64).
	MaxPathsPerEntity int
	// Beam is the number of Mρ-preferred continuations followed at each
	// expansion step. Beam=1 is the paper's greedy selection; the default
	// 3 trades a bounded constant factor of extra paths for recall, which
	// matters when Mρ is a small model trained on a modest corpus
	// (see DESIGN.md, ablation 1).
	Beam int
	// Seed drives clustering and the RndPath baseline (default 1).
	Seed uint64
	// Accept, when non-nil, models the user interaction of §III-A step 4:
	// it is shown each candidate attribute (name, patterns, sample
	// matches) in rank order and returns whether to include it.
	Accept func(attr string, patterns []PathPattern, sample []WSample) bool
	// NoiseFrac corrupts this fraction of KMC assignments before pattern
	// refinement (Fig 5(f) robustness experiment).
	NoiseFrac float64
	// NoRefinement skips the majority-vote pattern refinement of §III-A
	// step 3, leaving each pattern in every cluster it appears in
	// (ablation 3 of DESIGN.md).
	NoRefinement bool
	// DisableTerm1/2/3 zero out the corresponding term of the ranking
	// function (ablation 4 of DESIGN.md).
	DisableTerm1 bool
	DisableTerm2 bool
	DisableTerm3 bool
	// AllowBounce permits paths that leave a vertex over some edge label
	// and immediately return over the same label in the opposite
	// direction (l, ^l). Such "bounce" hops land on a sibling entity, so
	// the suffix describes the sibling rather than the entity being
	// enriched; they are filtered by default (see DESIGN.md, ablation 7).
	AllowBounce bool
	// LengthPenalty subtracts LengthPenalty·(avg pattern hops − 1) from a
	// cluster's ranking score. The paper's function has no such term but
	// observes that "attributes extracted by longer paths have weaker
	// associations"; the penalty encodes that as an Occam prior so that a
	// hub detour reaching the same label class cannot outrank the direct
	// pattern on embedding noise. Default 0.05; set negative to disable
	// and recover the exact paper ranking (see DESIGN.md, ablation 4).
	LengthPenalty float64
	// Obs, when non-nil, receives per-phase extraction timings
	// (core_rext_phase_seconds) and HER match timings. Extractors built
	// by the gSQL engine inherit the engine's registry here.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 3
	}
	if c.H == 0 {
		c.H = 30
	}
	if c.MaxAttrs == 0 {
		c.MaxAttrs = len(c.Keywords)
	}
	if c.MaxAttrs > c.H {
		c.MaxAttrs = c.H
	}
	if c.MaxPathsPerEntity == 0 {
		c.MaxPathsPerEntity = 64
	}
	if c.Beam == 0 {
		c.Beam = 3
	}
	if c.LengthPenalty == 0 {
		c.LengthPenalty = 0.05
	} else if c.LengthPenalty < 0 {
		c.LengthPenalty = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// WSample is one element of a cluster's match set Wi: the matching entity
// vertex and the label of the path's end vertex (the candidate attribute
// value).
type WSample struct {
	Vertex   graph.VertexID
	EndLabel string
}

// PatternCluster is one selected cluster Pi of P, carrying the attribute
// name Ai it was assigned and the keyword embedding used for value
// ranking in Algorithm 1.
type PatternCluster struct {
	Attr     string
	Patterns []PathPattern
	attrVec  mat.Vector
	patKeys  map[string]bool
}

// Scheme is the extraction scheme: the extracted schema
// RG(vid, A1, ..., Am) and the pattern clusters backing each attribute.
type Scheme struct {
	Schema   *rel.Schema
	Clusters []PatternCluster
	K        int
}

// Attrs returns the extracted attribute names A1..Am.
func (s *Scheme) Attrs() []string {
	out := make([]string, len(s.Clusters))
	for i, c := range s.Clusters {
		out[i] = c.Attr
	}
	return out
}

// scoredCluster is one refined pattern cluster P'_i with its ranking
// ingredients (kept so IncExt can re-rank on keyword updates without
// re-clustering).
type scoredCluster struct {
	patterns map[string]int // pattern key -> conforming path count
	w        []wEntry
	term1    float64   // |Wi|/|P|
	term2    float64   // max_φ avg cos(end, tuple attr value)
	term3    float64   // max_ε avg cos(end, keyword)
	kwAvg    []float64 // avg cos(end, keyword) per keyword (for greedy assignment)
	bestKw   string
	score    float64
}

type wEntry struct {
	vertex   graph.VertexID
	tupleIdx int // index into S, or -1 without reference tuples
	endLabel string
	endVec   mat.Vector // xL(ρ.vl), L2-normalised word embedding
}

// baseState is one materialised state of a base: the reference tuples S
// (nil for type extraction), the HER matches f(S,G) and the extracted
// relation h(S,G) (nil until Extract), with the read structures derived
// from them. It is immutable once install has built it, so a reader that
// holds one — through a published Version — may use it while the
// extractor moves on.
type baseState struct {
	s       *rel.Relation
	matches []her.Match
	result  *rel.Relation
	// vertexTuple maps matched vertex -> tuple index (first match wins).
	vertexTuple map[graph.VertexID]int
	// tidMatch maps a tuple id (as rendered by Value.String) to its match.
	tidMatch map[string]her.Match
	// matchRel is f(S,G) as a relation joinable with S (nil without S).
	matchRel *rel.Relation
	// gen identifies this state among all states of all extractors in
	// the process: what is derived from the state records the gen it was
	// built at and is out of date once the extractor holds another.
	gen uint64
}

// Extractor runs RExt against one graph and holds the caches (selected
// paths, refined clusters, match relation) that Algorithm 1 and IncExt
// reuse.
type Extractor struct {
	g      *graph.Graph
	models Models
	cfg    Config

	// initErr records an invalid constructor configuration (missing
	// models). It is surfaced by Discover/Extract instead of panicking
	// in NewExtractor, so a misconfigured pipeline fails with a
	// diagnosable error at its first use.
	initErr error

	// The materialised state, replaced as a whole by install (its only
	// writer) and never changed afterwards; e.s, e.matches, e.result and
	// the rest are read through it.
	*baseState

	mu        sync.Mutex
	pathCache map[graph.VertexID][]graph.Path
	valueVecs map[string]mat.Vector

	clusters   []*scoredCluster
	totalPaths int
	scheme     *Scheme

	// skipDeleteMaintenance disables the stale-row drop in
	// ApplyGraphUpdate. Fault-injection hook for the metamorphic harness
	// (internal/prop) only — see SetSkipDeleteMaintenance.
	skipDeleteMaintenance bool

	timings Timings
}

// Timings breaks an extraction down by pipeline stage (seconds). The
// split mirrors the cost analysis of §III-A: path selection and
// embedding dominate for large k, clustering for large H.
type Timings struct {
	Selection  float64 // Mρ-guided path selection
	Embedding  float64 // vertex-path pair embedding
	Clustering float64 // KMC
	Ranking    float64 // refinement + ranking + scheme selection
	Extraction float64 // Algorithm 1
}

// Timings returns the stage breakdown of the most recent run.
func (e *Extractor) Timings() Timings { return e.timings }

// NewExtractor builds an extractor over g with the given models and
// configuration.
func NewExtractor(g *graph.Graph, models Models, cfg Config) *Extractor {
	e := &Extractor{
		g:         g,
		models:    models,
		cfg:       cfg.withDefaults(),
		baseState: &baseState{},
		pathCache: make(map[graph.VertexID][]graph.Path),
		valueVecs: make(map[string]mat.Vector),
	}
	if models.Seq == nil && !models.RandomPaths {
		e.initErr = fmt.Errorf("core: sequence model required unless RandomPaths is set")
	} else if models.Word == nil {
		e.initErr = fmt.Errorf("core: word embedder required")
	}
	return e
}

// Scheme returns the discovered extraction scheme (nil before Discover).
func (e *Extractor) Scheme() *Scheme { return e.scheme }

// Result returns the extracted relation DG (nil before Extract).
func (e *Extractor) Result() *rel.Relation { return e.result }

// Matches returns the HER match relation currently in use.
func (e *Extractor) Matches() []her.Match { return e.matches }

// MatchRelation returns the current f(S,G) as a relation joinable with
// S by natural join (S's key attribute, then vid); nil without S.
func (e *Extractor) MatchRelation() *rel.Relation { return e.matchRel }

// stateGen issues generations. It is process-wide, not per extractor,
// so that rebinding a base to a recovered extractor cannot repeat a
// number an older derived structure was stamped with.
var stateGen atomic.Uint64

// install is the extractor's one commit point: S, the matches and the
// extracted relation are replaced together, by a new state with the read
// structures derived from them and the next generation; the state it
// replaces is left as it was for whoever still reads it. result must be
// a relation no earlier state holds. Callers compute everything that can
// fail beforehand.
func (e *Extractor) install(s *rel.Relation, matches []her.Match, result *rel.Relation) {
	st := &baseState{
		s: s, matches: matches, result: result,
		vertexTuple: make(map[graph.VertexID]int, len(matches)),
		tidMatch:    make(map[string]her.Match, len(matches)),
		gen:         stateGen.Add(1),
	}
	for _, m := range matches {
		if _, ok := st.vertexTuple[m.Vertex]; !ok {
			st.vertexTuple[m.Vertex] = m.TupleIdx
		}
		st.tidMatch[m.TID.String()] = m
	}
	if s != nil {
		st.matchRel = matchRelation(s, matches)
	}
	e.baseState = st
}

// Run performs both phases of RExt: pattern discovery over the matched
// vertices of S, then attribute extraction (Algorithm 1), returning the
// extracted relation DG of schema RG.
func (e *Extractor) Run(s *rel.Relation, matches []her.Match) (*rel.Relation, error) {
	if err := e.Discover(s, matches); err != nil {
		return nil, err
	}
	r, err := e.Extract()
	if err != nil {
		return nil, err
	}
	e.publishTimings()
	return r, nil
}

// publishTimings reports the most recent stage breakdown to the
// configured registry as per-phase latency histograms.
func (e *Extractor) publishTimings() {
	reg := e.cfg.Obs
	if reg == nil {
		return
	}
	for _, p := range []struct {
		phase string
		sec   float64
	}{
		{"selection", e.timings.Selection},
		{"embedding", e.timings.Embedding},
		{"clustering", e.timings.Clustering},
		{"ranking", e.timings.Ranking},
		{"extraction", e.timings.Extraction},
	} {
		reg.Histogram("core_rext_phase_seconds", nil, "phase", p.phase).Observe(p.sec)
	}
}

// Discover is phase I of §III-A: LSTM-guided path selection from every
// matched vertex, vertex-path pair embedding, K-means clustering, pattern
// refinement by majority voting, and ranking-based pattern/attribute
// selection. It stores the resulting Scheme on the extractor.
func (e *Extractor) Discover(s *rel.Relation, matches []her.Match) error {
	if e.initErr != nil {
		return e.initErr
	}
	if len(e.cfg.Keywords) == 0 {
		return fmt.Errorf("core: RExt needs at least one keyword in A")
	}
	if len(matches) == 0 {
		return fmt.Errorf("core: empty HER match relation f(S,G)")
	}
	e.install(s, matches, nil)

	// (1) Path selection from every matched vertex, in parallel.
	vertices := make([]graph.VertexID, 0, len(e.vertexTuple))
	for v := range e.vertexTuple {
		vertices = append(vertices, v)
	}
	sort.Slice(vertices, func(i, j int) bool { return vertices[i] < vertices[j] })
	stageStart := time.Now()
	e.selectPathsFor(vertices)
	e.timings.Selection = time.Since(stageStart).Seconds()

	type pair struct {
		path graph.Path
		vec  mat.Vector
	}
	var pairs []pair
	for _, v := range vertices {
		for _, p := range e.pathCache[v] {
			pairs = append(pairs, pair{path: p})
		}
	}
	e.totalPaths = len(pairs)
	if len(pairs) == 0 {
		return fmt.Errorf("core: no paths selected from %d matched vertices", len(vertices))
	}

	// (2) Vertex-path pair embedding: concat(L2(xL(end)), L2(xρ)).
	stageStart = time.Now()
	e.parallelFor(len(pairs), 1, func(i int) {
		p := pairs[i].path
		xl := mat.Normalize(e.models.Word.Embed(e.g.Label(p.End())))
		var xr mat.Vector
		if e.models.Seq != nil {
			xr = mat.Normalize(e.models.Seq.EmbedSequence(p.EdgeLabels))
		} else {
			xr = mat.NewVector(0)
		}
		pairs[i].vec = mat.Concat(xl, xr)
	})
	points := make([]mat.Vector, len(pairs))
	for i := range pairs {
		points[i] = pairs[i].vec
	}
	e.timings.Embedding = time.Since(stageStart).Seconds()

	// (3) KMC into H clusters (optionally noise-injected for Fig 5(f)).
	stageStart = time.Now()
	res, err := cluster.KMeans(points, cluster.Config{
		K: e.cfg.H, MaxIter: 25, Seed: e.cfg.Seed,
	})
	if err != nil {
		return err
	}
	e.timings.Clustering = time.Since(stageStart).Seconds()
	if e.cfg.NoiseFrac > 0 {
		cluster.InjectNoise(res.Assign, len(res.Centroids), e.cfg.NoiseFrac, e.cfg.Seed+13)
	}

	// (4) Pattern refinement by majority voting: each pattern is kept only
	// in the cluster holding most of its conforming paths.
	counts := make([]map[string]int, len(res.Centroids))
	for i := range counts {
		counts[i] = map[string]int{}
	}
	for i, p := range pairs {
		counts[res.Assign[i]][patternKeyOf(p.path)]++
	}
	refined := make([]*scoredCluster, len(res.Centroids))
	if e.cfg.NoRefinement {
		// Ablation: keep every pattern in every cluster it occurs in.
		for ci, m := range counts {
			for k, n := range m {
				if refined[ci] == nil {
					refined[ci] = &scoredCluster{patterns: map[string]int{}}
				}
				refined[ci].patterns[k] = n
			}
		}
	} else {
		owner := map[string]int{} // pattern key -> owning cluster
		ownerCount := map[string]int{}
		for ci, m := range counts {
			// Ascending ci: ties keep the lowest cluster id (deterministic).
			for k, n := range m {
				if cur, ok := ownerCount[k]; !ok || n > cur {
					owner[k] = ci
					ownerCount[k] = n
				}
			}
		}
		for k, ci := range owner {
			if refined[ci] == nil {
				refined[ci] = &scoredCluster{patterns: map[string]int{}}
			}
			refined[ci].patterns[k] = ownerCount[k]
		}
	}

	// (5) Build W sets: every selected path conforming to a cluster's
	// pattern contributes (start vertex, end label).
	patClusters := map[string][]*scoredCluster{}
	var live []*scoredCluster
	for _, sc := range refined {
		if sc == nil {
			continue
		}
		live = append(live, sc)
		for k := range sc.patterns {
			patClusters[k] = append(patClusters[k], sc)
		}
	}
	for _, v := range vertices {
		for _, p := range e.pathCache[v] {
			endLabel := e.g.Label(p.End())
			for _, sc := range patClusters[patternKeyOf(p)] {
				sc.w = append(sc.w, wEntry{
					vertex:   p.Start(),
					tupleIdx: e.vertexTuple[p.Start()],
					endLabel: endLabel,
					endVec:   e.valueVec(endLabel),
				})
			}
		}
	}

	// (6) Rank and select.
	stageStart = time.Now()
	e.clusters = live
	e.rankClusters(e.cfg.Keywords)
	e.scheme = e.selectScheme(e.cfg.Keywords)
	e.timings.Ranking = time.Since(stageStart).Seconds()
	return nil
}

// selectPathsFor fills the path cache for the given vertices in parallel.
func (e *Extractor) selectPathsFor(vertices []graph.VertexID) {
	missing := make([]graph.VertexID, 0, len(vertices))
	for _, v := range vertices {
		if _, ok := e.pathCache[v]; !ok {
			missing = append(missing, v)
		}
	}
	results := make([][]graph.Path, len(missing))
	e.parallelFor(len(missing), walkGrain, func(i int) {
		results[i] = e.selectPaths(missing[i])
	})
	for i, v := range missing {
		e.pathCache[v] = results[i]
	}
}

// selectPaths implements SelectPath (§III-A step 1): one greedy walk per
// incident edge of v, each extended by the edge label Mρ deems most
// probable, stopping on <eos>, a dead end, the bound k, or a cycle. Every
// prefix of a walk is itself a selected path (clusters mix lengths, as in
// the paper's Figure 2). With RandomPaths set the extension is uniform
// (the RndPath baseline).
//
// What it reads of the graph is what IncExt's walkRead relies on: the
// adjacency (Steps) of v and of the end of every selected path shorter
// than K — that is, of path vertices at index < K — and vertex labels,
// which never change. Everything else is a function of v and the models.
func (e *Extractor) selectPaths(v graph.VertexID) []graph.Path {
	if !e.g.Live(v) {
		return nil
	}
	steps := e.g.Steps(nil, v)
	if len(steps) > e.cfg.MaxPathsPerEntity {
		steps = steps[:e.cfg.MaxPathsPerEntity]
	}
	rng := mat.NewRNG(e.cfg.Seed ^ (uint64(v) + 0x9e37))
	var out []graph.Path
	// root is Mρ after the prefix every walk from v shares, (BOS, L(v)).
	var root nn.State
	if !e.models.RandomPaths {
		root = e.models.Seq.Start()
		root.Feed(e.g.Label(v))
	}
	// branch is one frontier element of the (narrow) beam expansion.
	type branch struct {
		path  graph.Path
		state nn.State
	}
	// ranked holds one candidate step per distinct edge label; tokens and
	// scores run parallel to it, with EOS in the extra last slot.
	type labelled struct {
		step  graph.Step
		tok   string
		score float64
	}
	var (
		ranked []labelled
		tokens []string
		scores []float64
		cands  []graph.Step
	)
	for _, first := range steps {
		p := graph.Path{
			Vertices:   []graph.VertexID{v, first.To},
			EdgeLabels: []string{graph.MarkLabel(first.Label, first.Forward)},
		}
		out = append(out, p.Clone())

		var state nn.State
		if !e.models.RandomPaths {
			state = root.Clone()
			state.Feed(p.EdgeLabels[0])
			state.Feed(e.g.Label(first.To))
		}
		frontier := []branch{{path: p, state: state}}
		for depth := 1; depth < e.cfg.K && len(frontier) > 0; depth++ {
			var next []branch
			for _, br := range frontier {
				cands = e.g.Steps(cands[:0], br.path.End())
				prev := br.path.EdgeLabels[len(br.path.EdgeLabels)-1]
				// Drop cycle-forming steps (stop condition (d)) and, unless
				// AllowBounce is set, sibling bounces (l then ^l).
				keep := cands[:0]
				for _, c := range cands {
					if br.path.Contains(c.To) {
						continue
					}
					if !e.cfg.AllowBounce && inverseLabel(prev) == graph.MarkLabel(c.Label, c.Forward) {
						continue
					}
					keep = append(keep, c)
				}
				cands = keep
				if len(cands) == 0 {
					continue // stop condition (b): no edge to choose
				}
				var chosen []graph.Step
				if e.models.RandomPaths {
					chosen = append(chosen, cands[rng.Intn(len(cands))])
				} else {
					// The paper chooses the EDGE LABEL with the highest
					// predicted probability, then an edge carrying it; the
					// beam generalisation keeps the top-Beam distinct
					// labels, one (deterministic) edge each: the one to the
					// lowest vertex id.
					ranked, tokens = ranked[:0], tokens[:0]
				cand:
					for _, c := range cands {
						tok := graph.MarkLabel(c.Label, c.Forward)
						for i := range ranked {
							if ranked[i].tok == tok {
								if c.To < ranked[i].step.To {
									ranked[i].step = c
								}
								continue cand
							}
						}
						ranked = append(ranked, labelled{step: c, tok: tok})
						tokens = append(tokens, tok)
					}
					// Labels are ranked by their own output scores, which
					// order them as the full next-token distribution would;
					// a label Mρ never saw scores -Inf (probability 0).
					scores = br.state.Scores(scores[:0], append(tokens, nn.EOS))
					for i := range ranked {
						ranked[i].score = scores[i]
					}
					sort.SliceStable(ranked, func(i, j int) bool {
						if ranked[i].score != ranked[j].score {
							return ranked[i].score > ranked[j].score
						}
						return ranked[i].step.To < ranked[j].step.To
					})
					// Stop condition (a): Mρ emits the end-of-sentence
					// signal with higher probability than any candidate.
					if scores[len(ranked)] > ranked[0].score {
						continue
					}
					width := e.cfg.Beam
					if width > len(ranked) {
						width = len(ranked)
					}
					for _, r := range ranked[:width] {
						chosen = append(chosen, r.step)
					}
				}
				for ci, c := range chosen {
					tok := graph.MarkLabel(c.Label, c.Forward)
					np := br.path.Extend(tok, c.To)
					out = append(out, np)
					var ns nn.State
					if !e.models.RandomPaths {
						if ci == len(chosen)-1 {
							ns = br.state // last branch may consume the state
						} else {
							ns = br.state.Clone()
						}
						ns.Feed(tok)
						ns.Feed(e.g.Label(c.To))
					}
					next = append(next, branch{path: np, state: ns})
				}
			}
			frontier = next
		}
	}
	return out
}

// valueVec returns the L2-normalised word embedding of a value string,
// memoised across the extraction.
func (e *Extractor) valueVec(s string) mat.Vector {
	e.mu.Lock()
	v, ok := e.valueVecs[s]
	e.mu.Unlock()
	if ok {
		return v
	}
	v = mat.Normalize(e.models.Word.Embed(s))
	e.mu.Lock()
	e.valueVecs[s] = v
	e.mu.Unlock()
	return v
}

// walkGrain is the grain of the per-vertex loops (path selection, row
// extraction). One walk is a few hundred microseconds and a parked core
// takes anything from 0.05 to a few milliseconds to wake: with fewer
// walks than this per worker, when the second worker starts decides how
// long the loop takes, and the same ΔG costs 5 ms in one run and 8 in
// the next (DESIGN.md "V∆: candidates vs. read set").
const walkGrain = 64

// parallelFor runs fn(i) for i in [0, n) on up to GOMAXPROCS workers,
// each with at least grain items to its name; fewer than two grains run
// on the calling goroutine.
func (e *Extractor) parallelFor(n, grain int, fn func(i int)) {
	workers := min(normPar(0), n/grain)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
