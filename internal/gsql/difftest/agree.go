package difftest

import (
	"errors"
	"fmt"
	"sync"

	"semjoin/internal/gsql"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// engine returns an engine over cat at parallelism par, with a private
// metrics registry so harness traffic stays out of obs.Default.
func engine(cat *gsql.Catalog, par int) *gsql.Engine {
	e := gsql.NewEngine(cat)
	e.Parallelism = par
	e.Obs = obs.NewRegistry()
	return e
}

// Agree runs q on every route the differential harnesses compare — the
// reference evaluator, a serial engine, a parallel engine, then the
// parallel engine again with cat's gL connectivity cache cleared
// (cache-cold) and once more (cache-warm) — and returns nil when every
// engine route returns the reference's bag of tuples with the ORDER BY
// keys in the reference's sequence. A route that fails to execute is an
// error too: the generator only emits queries that run.
func Agree(cat *gsql.Catalog, q string) error {
	want, err := Reference(cat, q)
	if err != nil {
		return fmt.Errorf("reference %q: %w", q, err)
	}
	serial, par := engine(cat, 1), engine(cat, 4)
	routes := []struct {
		name string
		eng  *gsql.Engine
		cold bool
	}{{"serial", serial, false}, {"parallel", par, false}, {"gL-cold", par, true}, {"gL-warm", par, false}}
	for _, r := range routes {
		if r.cold {
			cat.Mat.ClearGLCache()
		}
		got, err := r.eng.Query(q)
		if err != nil {
			return fmt.Errorf("%s engine %q: %w", r.name, q, err)
		}
		if d := Diff(want, got); d != "" {
			return fmt.Errorf("reference vs %s engine disagree on %q: %s", r.name, q, d)
		}
		if d := DiffOrder(q, want, got); d != "" {
			return fmt.Errorf("reference vs %s engine order %q differently: %s", r.name, q, d)
		}
	}
	return nil
}

// RaceEngines checks that sessions engines sharing cat, racing through
// queries concurrently, each return what a lone serial engine returns.
// Session s runs at parallelism(s) and walks the list from offset s, so
// different queries overlap in time. Any interference through the shared
// materialisation, gL cache or columnar images shows as a bag
// difference (or, under -race, as a race report). It returns each
// session's first divergence, joined.
func RaceEngines(cat *gsql.Catalog, queries []string, sessions int, parallelism func(session int) int) error {
	serial := engine(cat, 1)
	want := make([]*rel.Relation, len(queries))
	for i, q := range queries {
		out, err := serial.Query(q)
		if err != nil {
			return fmt.Errorf("serial engine %q: %w", q, err)
		}
		want[i] = out
	}
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := engine(cat, parallelism(s))
			for k := range queries {
				i := (k + s) % len(queries)
				out, err := eng.Query(queries[i])
				if err == nil {
					if d := Diff(want[i], out); d != "" {
						err = fmt.Errorf("diverged from the serial engine: %s", d)
					}
				}
				if err != nil {
					errs[s] = fmt.Errorf("engine %d (par=%d) %q: %w", s, eng.Parallelism, queries[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
