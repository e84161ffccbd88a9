package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// IncStats reports what an incremental maintenance step did.
type IncStats struct {
	// Touched is the number of graph vertices directly touched by ΔG.
	Touched int
	// Candidates is the paper's |V∆|: matched entity vertices that are
	// newly matched or within k hops of a touched vertex.
	Candidates int
	// Reselected is the number of candidates whose paths were selected
	// again, because ΔG touched a vertex their cached walk had read or
	// because no walk was cached; the other candidates' walks were kept.
	Reselected int
	// Affected is the number of matched entity vertices whose extracted
	// values were re-computed: the reselected candidates and the newly
	// matched ones.
	Affected int
	// Removed is the number of DG rows dropped (entities no longer
	// matched or deleted).
	Removed int
	// Seq is the WAL sequence number a DurableStore logged the step at;
	// 0 for a step applied to an extractor directly.
	Seq uint64
}

// ApplyGraphUpdate is IncExt for data updates (§III-B): it applies ΔG to
// the graph, recomputes HER matches with the supplied matcher, collects
// the candidate set V∆ — (a) newly matched vertices, (b) previously
// matched vertices within k hops of any vertex touched by ΔG — and
// re-extracts tuples via lines 3–4 of Algorithm 1 only for the candidates
// whose selected paths can have changed: those whose cached walk read a
// touched vertex (walkRead), or that have none. Pattern discovery is NOT
// redone; extraction results for every other vertex are reused verbatim,
// so the outcome matches a from-scratch RExt run (the paper's
// no-accuracy-loss property) as long as path patterns themselves remain
// representative.
func (e *Extractor) ApplyGraphUpdate(delta graph.Batch, matcher her.Matcher) (IncStats, error) {
	return e.ApplyGraphUpdateContext(context.Background(), delta, matcher)
}

// ApplyGraphUpdateContext is ApplyGraphUpdate with observability: when
// ctx carries a trace the maintenance step reports itself as three
// phases — "incext_candidates" (apply ΔG, HER, the k-hop ball and the
// read-set test), "incext_reselect" (path selection and Algorithm 1 for
// what the test did not clear) and "incext_commit" — a ctx logger gets a
// structured record of what the step did, and the extractor's registry
// counts candidates, reselected and kept walks.
func (e *Extractor) ApplyGraphUpdateContext(ctx context.Context, delta graph.Batch, matcher her.Matcher) (IncStats, error) {
	start := time.Now()
	if err := e.ready(); err != nil {
		logUpdate(ctx, "graph", start, err)
		return IncStats{}, err
	}
	return e.maintainGraphUpdate(ctx, start, delta, delta.Apply(e.g), matcher), nil
}

// ready reports whether IncExt can maintain e: it needs a completed RExt
// run.
func (e *Extractor) ready() error {
	if e.scheme == nil || e.result == nil {
		return fmt.Errorf("core: IncExt requires a completed RExt run")
	}
	return nil
}

// logUpdate reports one IncExt step on the ctx logger: a Warn with the
// error, or a Debug with what the step did (fields) and how long it
// took.
func logUpdate(ctx context.Context, kind string, start time.Time, err error, fields ...any) {
	if err != nil {
		obs.LoggerFromContext(ctx).Warn("incext "+kind+" update failed", "err", err.Error())
		return
	}
	obs.LoggerFromContext(ctx).Debug("incext "+kind+" update", append(fields,
		"duration_ms", float64(time.Since(start))/float64(time.Millisecond))...)
}

// maintainGraphUpdate is IncExt's maintenance of one base after ΔG has
// been applied to the graph it extracts over, given the vertices the
// batch touched: what ApplyGraphUpdateContext does past the apply, and
// what a DurableStore runs for each base of its domain. start is when the
// step began, the apply included.
func (e *Extractor) maintainGraphUpdate(ctx context.Context, start time.Time, delta graph.Batch, touched []graph.VertexID, matcher her.Matcher) IncStats {
	trace := obs.TraceFromContext(ctx)
	phase := start

	// Recompute the HER match relation on the updated graph.
	newMatches := matcher.Match(e.s, e.g)
	matched := matchedVertices(newMatches)

	// Every cached walk whose neighbourhood may have changed lies in the
	// k-hop ball of the update; the read-set test drops the ones that
	// did change, for matched and unmatched vertices alike — an
	// unmatched vertex may be re-matched by a later ΔD update, and
	// ApplyRelationUpdate would then extract its values from paths
	// cached before this ΔG. (Found by the internal/prop IncExt oracle.)
	reach := e.g.KHopNeighborhood(touched, e.cfg.K)
	e.dropStaleWalks(delta, touched, reach)

	// V∆ step (a): vertices matched now but not before; step (b): old
	// matched vertices within k hops of the update that are still
	// matched (ones no longer matched just lose their DG row). A
	// candidate of (b) whose walk survived the test keeps its row.
	st := IncStats{Touched: len(touched)}
	affected := map[graph.VertexID]bool{}
	var order []graph.VertexID
	candidate := func(v graph.VertexID, isNew bool) {
		if !e.g.Live(v) {
			return
		}
		st.Candidates++
		_, cached := e.pathCache[v]
		if !cached {
			st.Reselected++
		}
		if isNew || !cached {
			affected[v] = true
			order = append(order, v)
		}
	}
	e.mu.Lock()
	for v := range matched {
		if _, was := e.vertexTuple[v]; !was {
			candidate(v, true)
		}
	}
	for v := range reach {
		if _, was := e.vertexTuple[v]; was && matched[v] {
			candidate(v, false)
		}
	}
	e.mu.Unlock()
	st.Affected = len(order)
	trace.Phase("incext_candidates", phase)

	phase = time.Now()
	rows := make([]rel.Tuple, len(order))
	e.parallelFor(len(order), walkGrain, func(i int) {
		rows[i] = e.extractTuple(order[i])
	})
	trace.Phase("incext_reselect", phase)

	// Commit: replace/add rows for affected vertices, drop rows for
	// vertices that are no longer matched or no longer live.
	phase = time.Now()
	vidCol := e.result.Schema.Col("vid")
	newRows := make([]rel.Tuple, 0, len(e.result.Tuples))
	for _, t := range e.result.Tuples {
		v := graph.VertexID(t[vidCol].Int())
		if affected[v] {
			continue // replaced below
		}
		if (!matched[v] || !e.g.Live(v)) && !e.skipDeleteMaintenance {
			st.Removed++
			continue
		}
		newRows = append(newRows, t)
	}
	newRows = append(newRows, rows...)
	e.install(e.s, newMatches, &rel.Relation{Schema: e.result.Schema, Tuples: newRows})
	trace.Phase("incext_commit", phase)

	kept := st.Candidates - st.Reselected
	reg := e.cfg.Obs
	reg.Counter("core_incext_candidates_total").Add(int64(st.Candidates))
	reg.Counter("core_incext_reselected_total").Add(int64(st.Reselected))
	reg.Counter("core_incext_walks_kept_total").Add(int64(kept))
	logUpdate(ctx, "graph", start, nil,
		"touched", st.Touched, "candidates", st.Candidates, "reselected", st.Reselected,
		"kept", kept, "affected", st.Affected, "removed", st.Removed)
	return st
}

// dropStaleWalks is the one place a graph update decides "re-walk or
// keep": of the cached walks in the k-hop ball it drops those that read
// a touched vertex, and those of vertices the batch deleted. What stays
// cached equals a fresh selectPaths on the updated graph.
//
// The ball is enough. A walk from v that read a touched vertex u reached
// it over a cached path v…u of fewer than K edges; either that path is
// intact and v is within K hops of u, or one of its edges went, whose
// endpoint nearer to v is touched and still joined to v.
func (e *Extractor) dropStaleWalks(delta graph.Batch, touched []graph.VertexID, reach map[graph.VertexID]bool) {
	touchedSet := make(map[graph.VertexID]bool, len(touched))
	for _, u := range touched {
		touchedSet[u] = true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for v := range reach {
		if paths, ok := e.pathCache[v]; ok && e.walkRead(v, paths, touchedSet) {
			delete(e.pathCache, v)
		}
	}
	for _, u := range delta {
		if u.Op == graph.DeleteVertex && !e.g.Live(u.Edge.From) {
			delete(e.pathCache, u.Edge.From)
		}
	}
}

// walkRead reports whether the walk selectPaths(v) that produced paths
// read the adjacency of a touched vertex. selectPaths reads Steps(u) only
// for v and for the end of each selected path it tries to extend — a
// path shorter than K — and every selected path is in paths, so the
// vertices read are v and the path vertices at index < K. Both endpoints
// of every changed edge and every neighbour of a deleted vertex are
// touched (graph.Batch.Apply), and labels never change: a walk that read
// no touched vertex would be selected again step for step.
func (e *Extractor) walkRead(v graph.VertexID, paths []graph.Path, touched map[graph.VertexID]bool) bool {
	if touched[v] {
		return true
	}
	for _, p := range paths {
		for _, u := range p.Vertices[:min(len(p.Vertices), e.cfg.K)] {
			if touched[u] {
				return true
			}
		}
	}
	return false
}

// CheckCachedWalks is a hook for tests and the metamorphic harness
// (internal/prop): it re-selects the paths of every vertex in the path
// cache, matched or not, and returns an error naming the first whose
// cached walk differs from what selectPaths yields on the graph as it
// is now — the invariant dropStaleWalks maintains.
func (e *Extractor) CheckCachedWalks() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for v, cached := range e.pathCache {
		fresh := e.selectPaths(v)
		if len(cached) != len(fresh) {
			return fmt.Errorf("core: vertex %d: %d cached paths, %d selected afresh", v, len(cached), len(fresh))
		}
		for i := range cached {
			if !slices.Equal(cached[i].Vertices, fresh[i].Vertices) || !slices.Equal(cached[i].EdgeLabels, fresh[i].EdgeLabels) {
				return fmt.Errorf("core: vertex %d: cached path %d is %v %v, selected afresh %v %v", v, i,
					cached[i].Vertices, cached[i].EdgeLabels, fresh[i].Vertices, fresh[i].EdgeLabels)
			}
		}
	}
	return nil
}

// ApplyRelationUpdate is IncExt for updates to the database D (§III-B
// treats them "similarly" to ΔG): the reference tuples change to newS,
// HER matches are recomputed, and values are extracted only for vertices
// that were not matched before; rows for vertices no longer matched are
// dropped, and rows for still-matched vertices are reused verbatim (the
// graph is unchanged, so their paths and values cannot have changed).
//
// The update is transactional: every validation runs and every new row is
// computed before any extractor state is replaced, so a failed update —
// nil input, or a matcher emitting out-of-range tuple indexes — leaves
// the extractor exactly as it was.
func (e *Extractor) ApplyRelationUpdate(newS *rel.Relation, matcher her.Matcher) (IncStats, error) {
	return e.ApplyRelationUpdateContext(context.Background(), newS, matcher)
}

// ApplyRelationUpdateContext is ApplyRelationUpdate with
// observability: an "incext_apply_relation" phase on the ctx trace
// and a structured record on the ctx logger.
func (e *Extractor) ApplyRelationUpdateContext(ctx context.Context, newS *rel.Relation, matcher her.Matcher) (IncStats, error) {
	start := time.Now()
	st, err := e.applyRelationUpdate(newS, matcher)
	obs.TraceFromContext(ctx).Phase("incext_apply_relation", start)
	logUpdate(ctx, "relation", start, err,
		"affected", st.Affected, "removed", st.Removed)
	return st, err
}

func (e *Extractor) applyRelationUpdate(newS *rel.Relation, matcher her.Matcher) (IncStats, error) {
	if err := e.ready(); err != nil {
		return IncStats{}, err
	}
	if newS == nil {
		return IncStats{}, fmt.Errorf("core: ApplyRelationUpdate: nil relation")
	}
	if matcher == nil {
		return IncStats{}, fmt.Errorf("core: ApplyRelationUpdate: nil matcher")
	}
	newMatches := matcher.Match(newS, e.g)
	for _, m := range newMatches {
		if m.TupleIdx < 0 || m.TupleIdx >= newS.Len() {
			return IncStats{}, fmt.Errorf("core: ApplyRelationUpdate: matcher returned tuple index %d outside [0,%d)", m.TupleIdx, newS.Len())
		}
	}
	matched := matchedVertices(newMatches)

	var fresh []graph.VertexID
	for v := range matched {
		if _, was := e.vertexTuple[v]; !was && e.g.Live(v) {
			fresh = append(fresh, v)
		}
	}
	rows := make([]rel.Tuple, len(fresh))
	e.parallelFor(len(fresh), walkGrain, func(i int) {
		rows[i] = e.extractTuple(fresh[i])
	})

	vidCol := e.result.Schema.Col("vid")
	newRows := make([]rel.Tuple, 0, len(e.result.Tuples)+len(rows))
	removed := 0
	for _, t := range e.result.Tuples {
		v := graph.VertexID(t[vidCol].Int())
		if !matched[v] || !e.g.Live(v) {
			removed++
			continue
		}
		newRows = append(newRows, t)
	}
	newRows = append(newRows, rows...)

	// Commit point: nothing below can fail.
	e.install(newS, newMatches, &rel.Relation{Schema: e.result.Schema, Tuples: newRows})
	return IncStats{Affected: len(fresh), Removed: removed}, nil
}

// UpdateKeywords is IncExt for user updates (§III-B): when the interest
// set A changes, only step (4) of pattern discovery is redone — the
// refined clusters and their W sets are re-ranked with the new keywords —
// and values are extracted only for attributes that were not already in
// the old scheme; retained attributes copy their existing column.
// The update is transactional: the keyword set is validated and the new
// relation fully computed before e.scheme/e.result are replaced, so a
// failed update leaves the extractor unchanged.
func (e *Extractor) UpdateKeywords(keywords []string) (*rel.Relation, error) {
	return e.UpdateKeywordsContext(context.Background(), keywords)
}

// UpdateKeywordsContext is UpdateKeywords with observability: an
// "incext_update_keywords" phase on the ctx trace and a structured
// record on the ctx logger.
func (e *Extractor) UpdateKeywordsContext(ctx context.Context, keywords []string) (*rel.Relation, error) {
	start := time.Now()
	out, err := e.updateKeywords(keywords)
	obs.TraceFromContext(ctx).Phase("incext_update_keywords", start)
	logUpdate(ctx, "keyword", start, err,
		"keywords", strings.Join(keywords, ","))
	return out, err
}

func (e *Extractor) updateKeywords(keywords []string) (*rel.Relation, error) {
	if err := e.ready(); err != nil {
		return nil, err
	}
	if len(keywords) == 0 {
		return nil, fmt.Errorf("core: empty keyword set")
	}
	for _, kw := range keywords {
		if strings.TrimSpace(kw) == "" {
			return nil, fmt.Errorf("core: blank keyword in update %q", keywords)
		}
	}
	old := e.result
	oldScheme := e.scheme
	oldCol := map[string]int{}
	for _, a := range oldScheme.Attrs() {
		oldCol[a] = old.Schema.Col(a)
	}
	oldPatKeys := map[string]map[string]bool{}
	for _, pc := range oldScheme.Clusters {
		oldPatKeys[pc.Attr] = pc.patKeys
	}

	e.cfg.Keywords = keywords
	e.cfg.MaxAttrs = len(keywords)
	e.rankClusters(keywords)
	newScheme := e.selectScheme(keywords)

	// Row order: one per previously extracted vertex.
	vidCol := old.Schema.Col("vid")
	dg := rel.NewRelation(newScheme.Schema)
	rows := make([]rel.Tuple, len(old.Tuples))
	e.parallelFor(len(old.Tuples), walkGrain, func(i int) {
		oldRow := old.Tuples[i]
		v := graph.VertexID(oldRow[vidCol].Int())
		row := make(rel.Tuple, 1+len(newScheme.Clusters))
		row[0] = oldRow[vidCol]
		var paths []graph.Path
		for j, pc := range newScheme.Clusters {
			// Reuse the old column when the attribute maps to the same
			// pattern cluster as before.
			if c, ok := oldCol[pc.Attr]; ok && samePatKeys(oldPatKeys[pc.Attr], pc.patKeys) {
				row[1+j] = oldRow[c]
				continue
			}
			if paths == nil {
				paths = e.pathsFor(v)
			}
			row[1+j] = e.extractValue(paths, pc)
		}
		rows[i] = row
	})
	dg.Tuples = rows

	// Commit point: nothing below can fail.
	e.scheme = newScheme
	e.install(e.s, e.matches, dg)
	return dg, nil
}

// SetSkipDeleteMaintenance is a fault-injection hook for the metamorphic
// harness (internal/prop): when enabled, ApplyGraphUpdate keeps rows for
// vertices that are no longer matched or no longer live — the class of
// bug the IncExt-vs-RExt oracle must catch and shrink to a minimal
// counterexample. It has no place outside tests.
func (e *Extractor) SetSkipDeleteMaintenance(on bool) { e.skipDeleteMaintenance = on }

// matchedVertices is the set of vertices a match relation pairs with
// some tuple.
func matchedVertices(matches []her.Match) map[graph.VertexID]bool {
	set := make(map[graph.VertexID]bool, len(matches))
	for _, m := range matches {
		set[m.Vertex] = true
	}
	return set
}

func samePatKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
