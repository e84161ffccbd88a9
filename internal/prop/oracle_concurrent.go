package prop

import (
	"fmt"
	"sync"

	"semjoin/internal/gsql"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// Concurrency-oracle dimensions: how many engines race over one
// catalog, and how many generated queries each runs.
const (
	concurrentSessions   = 6
	concurrentPerSession = 8
)

// CheckConcurrent is oracle 6: N engines sharing one catalog — with
// differing parallelism settings, like network sessions —
// run the same generated query set concurrently, and every result must
// be bag-equal to a lone serial engine's. Any cross-engine
// interference through the shared materialisation, gL cache or
// columnar images shows up as a bag difference (or, under -race, as a
// race report).
func CheckConcurrent(seed int64, _ Stream) error {
	w := NewWorkload(seed)
	cat, err := w.Catalog()
	if err != nil {
		return fmt.Errorf("harness: catalog: %w", err)
	}
	qg := NewQueryGen(seed^0x9e11, extractedEJoinAttrs(cat.Mat, "product"))
	queries := make([]string, concurrentPerSession)
	for i := range queries {
		queries[i] = qg.Query()
	}

	serial := gsql.NewEngine(cat)
	serial.Parallelism = 1
	serial.Obs = obs.NewRegistry()
	want := make([]*queryRef, len(queries))
	for i, q := range queries {
		out, err := serial.Query(q)
		if err != nil {
			return fmt.Errorf("harness: serial %q: %w", q, err)
		}
		want[i] = &queryRef{q: q, out: out}
	}

	errs := make([]error, concurrentSessions)
	var wg sync.WaitGroup
	for s := 0; s < concurrentSessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			eng := gsql.NewEngine(cat)
			eng.Parallelism = 1 + s%4
			eng.Obs = obs.NewRegistry()
			// Offset walk: different engines hit different queries at the
			// same instant, maximising plan/cache overlap.
			for k := 0; k < len(want); k++ {
				ref := want[(k+s)%len(want)]
				out, err := eng.Query(ref.q)
				if err != nil {
					errs[s] = fmt.Errorf("engine %d (par=%d) %q: %w", s, eng.Parallelism, ref.q, err)
					return
				}
				if d := difftest.Diff(ref.out, out); d != "" {
					errs[s] = fmt.Errorf("engine %d (par=%d) diverged from serial on %q: %s",
						s, eng.Parallelism, ref.q, d)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// queryRef pairs a generated query with its serial reference result.
type queryRef struct {
	q   string
	out *rel.Relation
}
