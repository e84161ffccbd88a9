package prop

import (
	"fmt"

	"semjoin/internal/gsql"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// referenceQueriesPerSeed is how many generated queries one seed
// checks against the reference evaluator.
const referenceQueriesPerSeed = 12

// CheckReference is oracle 5: for every generated query the naive
// reference evaluator (difftest.Reference — nested loops, map
// group-by, sort.SliceStable, no operator shared with the engine), the
// serial engine and the parallel engine must return the same bag of
// tuples on one shared materialisation, with the ORDER BY keys in the
// same sequence. Any divergence — a miscompiled
// predicate, a selection vector surviving where it should not, a batch
// boundary splitting a group, a sort direction applied to the wrong
// key — is a counterexample the harness shrinks and reports with its
// seed.
func CheckReference(seed int64, _ Stream) error {
	w := NewWorkload(seed)
	cat, err := w.Catalog()
	if err != nil {
		return fmt.Errorf("harness: catalog: %w", err)
	}
	serial := gsql.NewEngine(cat)
	serial.Parallelism = 1
	serial.Obs = obs.NewRegistry()
	par := gsql.NewEngine(cat)
	par.Parallelism = 4
	par.Obs = obs.NewRegistry()

	qg := NewQueryGen(seed^0x51ec, extractedEJoinAttrs(cat.Mat, "product"))
	for i := 0; i < referenceQueriesPerSeed; i++ {
		q := qg.Query()
		want, err := difftest.Reference(cat, q)
		if err != nil {
			return fmt.Errorf("harness: reference evaluator %q: %w", q, err)
		}
		got, err := serial.Query(q)
		if err != nil {
			return fmt.Errorf("harness: serial engine %q: %w", q, err)
		}
		if d := difftest.Diff(want, got); d != "" {
			return fmt.Errorf("reference vs serial engine disagree on %q: %s", q, d)
		}
		gotPar, err := par.Query(q)
		if err != nil {
			return fmt.Errorf("harness: parallel engine %q: %w", q, err)
		}
		if d := difftest.Diff(got, gotPar); d != "" {
			return fmt.Errorf("serial vs parallel engine disagree on %q: %s", q, d)
		}
		for _, out := range []*rel.Relation{got, gotPar} {
			if d := difftest.DiffOrder(q, want, out); d != "" {
				return fmt.Errorf("reference vs engine order %q differently: %s", q, d)
			}
		}
	}
	return nil
}
