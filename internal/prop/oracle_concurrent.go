package prop

import (
	"fmt"

	"semjoin/internal/gsql/difftest"
)

// Concurrency-oracle dimensions: how many engines race over one
// catalog, and how many generated queries each runs.
const (
	concurrentSessions   = 6
	concurrentPerSession = 8
)

// CheckConcurrent is oracle 6: N engines sharing one catalog — with
// differing parallelism settings, like network sessions — run the same
// generated query set concurrently, and every result must be bag-equal
// to a lone serial engine's (difftest.RaceEngines).
func CheckConcurrent(seed int64, _ Stream) error {
	cat, err := NewWorkload(seed).Catalog()
	if err != nil {
		return fmt.Errorf("harness: catalog: %w", err)
	}
	gen := difftest.NewGen(seed^0x9e11, vocabOf(cat))
	queries := make([]string, concurrentPerSession)
	for i := range queries {
		queries[i] = gen.Query()
	}
	return difftest.RaceEngines(cat, queries, concurrentSessions, func(s int) int { return 1 + s%4 })
}
