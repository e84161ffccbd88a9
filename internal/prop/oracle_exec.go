package prop

import (
	"fmt"

	"semjoin/internal/gsql"
	"semjoin/internal/gsql/difftest"
)

// execQueriesPerStream is how many generated queries each of CheckExec's
// two query streams checks through every route.
const execQueriesPerStream = 12

// CheckExec is oracle 2: for every generated query, the naive reference
// evaluator (difftest.Reference — nested loops, map group-by,
// sort.SliceStable, no operator shared with the engine), serial
// execution, parallel execution, execution with a freshly-cleared gL
// connectivity cache and a cache-warm re-execution must all return the
// same bag of tuples, with the ORDER BY keys in the same sequence, on
// one shared materialisation (difftest.Agree). Any divergence — a
// miscompiled predicate, a selection vector surviving where it should
// not, a batch boundary splitting a group, a sort direction applied to
// the wrong key, a stale cached gL relation — is a counterexample the
// harness reports with its seed. It runs two query streams per seed.
func CheckExec(seed int64, _ Stream) error {
	cat, err := NewWorkload(seed).Catalog()
	if err != nil {
		return fmt.Errorf("harness: catalog: %w", err)
	}
	for _, stream := range []int64{seed ^ 0x9e11, seed ^ 0x51ec} {
		gen := difftest.NewGen(stream, vocabOf(cat))
		for i := 0; i < execQueriesPerStream; i++ {
			if err := difftest.Agree(cat, gen.Query()); err != nil {
				return err
			}
		}
	}
	return nil
}

// vocabOf is Vocabulary with the e-join attributes narrowed to those
// cat's materialisation extracted for the product base.
func vocabOf(cat *gsql.Catalog) difftest.Vocab {
	v := Vocabulary
	v.EJoin = difftest.ExtractedEJoinAttrs(cat.Mat, "product")
	return v
}
