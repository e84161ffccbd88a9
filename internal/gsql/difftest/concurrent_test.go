package difftest

import (
	"fmt"
	"testing"
)

// TestConcurrentEnginesMatchSerial is the engine-level concurrency
// oracle: N engines sharing one catalog run a seeded query set
// concurrently, and every result must be bag-equal to the same query
// run on a lone serial engine (RaceEngines). Run under -race this also
// proves the shared catalog (relations, graph, materialisation, gL
// cache, columnar images) is safe for concurrent readers. The grid
// covers both ends of the parallelism knob.
func TestConcurrentEnginesMatchSerial(t *testing.T) {
	const (
		sessions         = 8
		queriesPerWorker = 25
	)
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			f := mustBuild(t, 11)
			// One deterministic query list, shared by every worker: the
			// point is many sessions racing over the same plans and
			// caches, not coverage breadth (the generator handles that).
			gen := NewGen(11^0x5eed, f.Vocab)
			queries := make([]string, queriesPerWorker)
			for i := range queries {
				queries[i] = gen.Query()
			}
			if err := RaceEngines(f.Cat, queries, sessions, func(int) int { return par }); err != nil {
				t.Fatal(err)
			}
		})
	}
}
