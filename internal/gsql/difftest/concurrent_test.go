package difftest

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"semjoin/internal/gsql"
	"semjoin/internal/rel"
)

// TestConcurrentEnginesMatchSerial is the engine-level concurrency
// oracle: N engines sharing one catalog run a seeded query set
// concurrently, and every result must be bag-equal to the same query
// run on a lone serial engine. Run under -race this also proves the
// shared catalog (relations, graph, materialisation, gL cache,
// columnar images) is safe for concurrent readers. The grid covers
// both ends of the parallelism knob.
func TestConcurrentEnginesMatchSerial(t *testing.T) {
	const (
		sessions         = 8
		queriesPerWorker = 25
	)
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			f, err := Build(11)
			if err != nil {
				t.Fatal(err)
			}
			// One deterministic query list, shared by every worker: the
			// point is many sessions racing over the same plans and
			// caches, not coverage breadth (the generator handles that).
			gen := NewGen(11 ^ 0x5eed)
			queries := make([]string, queriesPerWorker)
			for i := range queries {
				queries[i] = gen.Query()
			}

			serial := gsql.NewEngine(f.Cat)
			serial.Parallelism = 1
			want := make([]*rel.Relation, len(queries))
			wantErr := make([]bool, len(queries))
			ctx := context.Background()
			for i, q := range queries {
				out, err := serial.QueryContext(ctx, q)
				if err != nil {
					wantErr[i] = true
					continue
				}
				want[i] = out
			}

			var wg sync.WaitGroup
			for w := 0; w < sessions; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					eng := gsql.NewEngine(f.Cat)
					eng.Parallelism = par
					// Each worker walks the query list at its own offset so
					// different queries overlap in time.
					for k := 0; k < len(queries); k++ {
						i := (k + w) % len(queries)
						out, err := eng.QueryContext(ctx, queries[i])
						if wantErr[i] {
							if err == nil {
								t.Errorf("worker %d query %q: serial errored, concurrent did not", w, queries[i])
							}
							continue
						}
						if err != nil {
							t.Errorf("worker %d query %q: %v", w, queries[i], err)
							continue
						}
						if d := Diff(want[i], out); d != "" {
							t.Errorf("worker %d query %q diverged from serial: %s", w, queries[i], d)
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
