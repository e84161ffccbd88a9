package prop

import (
	"fmt"

	"semjoin/internal/core"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/rel"
)

// CheckIncExt is oracle 1: running IncExt over a random ΔG/ΔD/keyword
// update stream must leave the extracted relation bag-equal to a fresh
// extraction on the final state, and after every step every selected
// path IncExt kept cached — for matched and unmatched vertices — must
// equal a fresh path selection on the graph as it then is (the final
// relation alone sees a stale walk of an unmatched vertex only if a
// later ΔD happens to re-match it). The fresh side reuses the incremental
// extractor's final scheme (ExtractWithScheme) rather than re-running
// discovery: pattern discovery is statistical and may legitimately
// pick a different scheme on the updated graph, while extraction under
// a fixed scheme is the paper's no-accuracy-loss claim for IncExt.
func CheckIncExt(seed int64, stream Stream) error {
	return checkIncExt(seed, stream, false)
}

// CheckIncExtBroken is CheckIncExt with the delete-maintenance fault
// injected (core.Extractor.SetSkipDeleteMaintenance): the harness's own
// regression test uses it to prove a real IncExt bug is caught and
// shrunk to a replayable counterexample.
func CheckIncExtBroken(seed int64, stream Stream) error {
	return checkIncExt(seed, stream, true)
}

func checkIncExt(seed int64, stream Stream, skipDeletes bool) error {
	w := NewWorkload(seed)
	gInc := w.G
	gRef := w.G.Clone()

	cfg := w.Cfg
	cfg.Keywords = w.AR
	cfg.MaxAttrs = len(w.AR)
	ex := core.NewExtractor(gInc, w.Models, cfg)
	if _, err := ex.Run(w.Products, w.Matcher.Match(w.Products, gInc)); err != nil {
		return fmt.Errorf("harness: initial RExt run: %w", err)
	}
	ex.SetSkipDeleteMaintenance(skipDeletes)

	drv := newStreamDriver(&directBase{ex: ex, matcher: w.Matcher}, w)
	for i, st := range stream {
		if err := drv.step(i, st); err != nil {
			return err
		}
		if err := ex.CheckCachedWalks(); err != nil {
			return fmt.Errorf("IncExt kept a stale walk at step %d: %w", i, err)
		}
		if st.Kind == StepGraph {
			// The reference graph sees the identical batch; sequential
			// vertex-id allocation keeps the two graphs in lockstep.
			st.Batch.Apply(gRef)
		}
	}
	cur := subsetRelation(drv.master, drv.present)

	ref := core.NewExtractor(gRef, w.Models, cfg)
	want, err := ref.ExtractWithScheme(cur, ex.Scheme(), w.Matcher.Match(cur, gRef))
	if err != nil {
		return fmt.Errorf("harness: reference extraction: %w", err)
	}
	if d := difftest.Diff(ex.Result(), want); d != "" {
		return fmt.Errorf("IncExt diverged from fresh extraction on the final state after %d steps: %s",
			len(stream), d)
	}
	return nil
}

// applyRelStep toggles row membership. Remove selectors index the
// currently-present rows (always leaving at least one), Restore
// selectors the currently-absent ones; both are taken modulo the
// respective count so any selector value applies to any state.
func applyRelStep(present []bool, st Step) {
	for _, sel := range st.Remove {
		idxs := flagged(present, true)
		if len(idxs) <= 1 {
			break
		}
		present[idxs[sel%len(idxs)]] = false
	}
	for _, sel := range st.Restore {
		idxs := flagged(present, false)
		if len(idxs) == 0 {
			break
		}
		present[idxs[sel%len(idxs)]] = true
	}
}

func flagged(present []bool, want bool) []int {
	var out []int
	for i, p := range present {
		if p == want {
			out = append(out, i)
		}
	}
	return out
}

// subsetRelation builds the relation holding master's rows whose flag
// is set, in master order.
func subsetRelation(master *rel.Relation, present []bool) *rel.Relation {
	out := rel.NewRelation(master.Schema)
	for i, t := range master.Tuples {
		if present[i] {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}
