package prop

import (
	"fmt"

	"semjoin/internal/core"
	"semjoin/internal/gsql"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/obs"
)

// execQueriesPerSeed is how many generated queries one seed checks
// through all four execution routes.
const execQueriesPerSeed = 12

// CheckExec is oracle 2: for every generated query, serial execution,
// parallel execution, execution with a freshly-cleared gL connectivity
// cache, and a cache-warm re-execution must all return the same bag of
// tuples on one shared materialisation.
func CheckExec(seed int64, _ Stream) error {
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

	qg := NewQueryGen(seed^0x9e11, extractedEJoinAttrs(cat.Mat, "product"))
	for i := 0; i < execQueriesPerSeed; i++ {
		q := qg.Query()
		a, err := serial.Query(q)
		if err != nil {
			return fmt.Errorf("harness: serial %q: %w", q, err)
		}
		b, err := par.Query(q)
		if err != nil {
			return fmt.Errorf("harness: parallel %q: %w", q, err)
		}
		if d := difftest.Diff(a, b); d != "" {
			return fmt.Errorf("serial vs parallel disagree on %q: %s", q, d)
		}
		// Cold route: drop every cached gL relation, forcing the BFS to
		// re-run; the result must not change.
		cat.Mat.ClearGLCache()
		cold, err := par.Query(q)
		if err != nil {
			return fmt.Errorf("harness: cache-cold %q: %w", q, err)
		}
		if d := difftest.Diff(b, cold); d != "" {
			return fmt.Errorf("cache-warm vs cache-cold disagree on %q: %s", q, d)
		}
		// Warm route: immediately re-run, now served from the cache.
		warm, err := par.Query(q)
		if err != nil {
			return fmt.Errorf("harness: cache-warm %q: %w", q, err)
		}
		if d := difftest.Diff(cold, warm); d != "" {
			return fmt.Errorf("cache-cold vs re-warmed disagree on %q: %s", q, d)
		}
	}
	return nil
}

// extractedEJoinAttrs returns the reference keywords of a base that
// the materialisation actually extracted as columns; e-join query
// generation is restricted to those (a seed's statistical discovery may
// select fewer attributes than AR, and a keyword step may drop some).
func extractedEJoinAttrs(m *core.Materialized, base string) []string {
	b := m.Base(base)
	if b == nil {
		return nil
	}
	var out []string
	for _, kw := range b.AR() {
		if b.Extracted.Schema.Col(kw) >= 0 {
			out = append(out, kw)
		}
	}
	return out
}
