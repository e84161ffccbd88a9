package core

import (
	"context"
	"fmt"
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
	// Affected is |V∆|: matched entity vertices whose extracted values
	// were re-computed.
	Affected int
	// Removed is the number of DG rows dropped (entities no longer
	// matched or deleted).
	Removed int
}

// ApplyGraphUpdate is IncExt for data updates (§III-B): it applies ΔG to
// the graph, recomputes HER matches with the supplied matcher, collects
// the affected vertex set V∆ — (a) newly matched vertices, (b) previously
// matched vertices within k hops of any vertex touched by ΔG — and
// re-extracts tuples only for V∆ via lines 3–4 of Algorithm 1. Pattern
// discovery is NOT redone; extraction results for unaffected vertices are
// reused verbatim, so the outcome matches a from-scratch RExt run (the
// paper's no-accuracy-loss property) as long as path patterns themselves
// remain representative.
func (e *Extractor) ApplyGraphUpdate(delta graph.Batch, matcher her.Matcher) (IncStats, error) {
	return e.ApplyGraphUpdateContext(context.Background(), delta, matcher)
}

// ApplyGraphUpdateContext is ApplyGraphUpdate with observability: when
// ctx carries a trace the maintenance step reports itself as an
// "incext_apply_graph" phase, and a ctx logger gets a structured
// record of what the step did.
func (e *Extractor) ApplyGraphUpdateContext(ctx context.Context, delta graph.Batch, matcher her.Matcher) (IncStats, error) {
	start := time.Now()
	st, err := e.applyGraphUpdate(delta, matcher)
	observeUpdate(ctx, "graph", "incext_apply_graph", start, err,
		"touched", st.Touched, "affected", st.Affected, "removed", st.Removed)
	return st, err
}

// observeUpdate reports one IncExt step: a phase on the ctx trace, and
// on the ctx logger a Warn with the error or a Debug with what the step
// did (fields) and how long it took.
func observeUpdate(ctx context.Context, kind, phase string, start time.Time, err error, fields ...any) {
	obs.TraceFromContext(ctx).Phase(phase, start)
	if err != nil {
		obs.LoggerFromContext(ctx).Warn("incext "+kind+" update failed", "err", err.Error())
		return
	}
	obs.LoggerFromContext(ctx).Debug("incext "+kind+" update", append(fields,
		"duration_ms", float64(time.Since(start))/float64(time.Millisecond))...)
}

func (e *Extractor) applyGraphUpdate(delta graph.Batch, matcher her.Matcher) (IncStats, error) {
	if e.scheme == nil || e.result == nil {
		return IncStats{}, fmt.Errorf("core: IncExt requires a completed RExt run")
	}
	touched := delta.Apply(e.g)

	// Recompute the HER match relation on the updated graph.
	newMatches := matcher.Match(e.s, e.g)
	matched := matchedVertices(newMatches)

	// V∆ step (a): vertices matched now but not before.
	affected := map[graph.VertexID]bool{}
	for v := range matched {
		if _, was := e.vertexTuple[v]; !was {
			affected[v] = true
		}
	}
	// V∆ step (b): old matched vertices within k hops of the update that
	// are still matched (ones no longer matched just lose their DG row).
	reach := e.g.KHopNeighborhood(touched, e.cfg.K)
	for v := range reach {
		if _, was := e.vertexTuple[v]; was && matched[v] {
			affected[v] = true
		}
	}

	// Invalidate cached paths for every vertex whose length-≤k
	// neighbourhood changed — matched or not. Invalidating only the
	// affected (matched) set is not enough: an unmatched vertex may be
	// re-matched by a later ΔD update, and ApplyRelationUpdate would
	// then extract its values from paths cached before this ΔG. (Found
	// by the internal/prop IncExt oracle.)
	e.mu.Lock()
	for v := range reach {
		delete(e.pathCache, v)
	}
	for v := range affected {
		delete(e.pathCache, v)
	}
	e.mu.Unlock()

	order := make([]graph.VertexID, 0, len(affected))
	for v := range affected {
		if e.g.Live(v) {
			order = append(order, v)
		}
	}
	rows := make([]rel.Tuple, len(order))
	e.parallelFor(len(order), func(i int) {
		rows[i] = e.extractTuple(order[i])
	})

	// Commit: replace/add rows for affected vertices, drop rows for
	// vertices that are no longer matched or no longer live.
	vidCol := e.result.Schema.Col("vid")
	newRows := make([]rel.Tuple, 0, len(e.result.Tuples))
	removed := 0
	for _, t := range e.result.Tuples {
		v := graph.VertexID(t[vidCol].Int())
		if affected[v] {
			continue // replaced below
		}
		if (!matched[v] || !e.g.Live(v)) && !e.skipDeleteMaintenance {
			removed++
			continue
		}
		newRows = append(newRows, t)
	}
	newRows = append(newRows, rows...)
	e.result.Tuples = newRows
	e.install(e.s, newMatches, e.result)

	return IncStats{Touched: len(touched), Affected: len(order), Removed: removed}, nil
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
	observeUpdate(ctx, "relation", "incext_apply_relation", start, err,
		"affected", st.Affected, "removed", st.Removed)
	return st, err
}

func (e *Extractor) applyRelationUpdate(newS *rel.Relation, matcher her.Matcher) (IncStats, error) {
	if e.scheme == nil || e.result == nil {
		return IncStats{}, fmt.Errorf("core: IncExt requires a completed RExt run")
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
	e.parallelFor(len(fresh), func(i int) {
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
	e.result.Tuples = newRows
	e.install(newS, newMatches, e.result)
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
	observeUpdate(ctx, "keyword", "incext_update_keywords", start, err,
		"keywords", strings.Join(keywords, ","))
	return out, err
}

func (e *Extractor) updateKeywords(keywords []string) (*rel.Relation, error) {
	if e.scheme == nil || e.result == nil {
		return nil, fmt.Errorf("core: IncExt requires a completed RExt run")
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
	e.parallelFor(len(old.Tuples), func(i int) {
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
