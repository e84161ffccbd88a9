package difftest

import (
	"strings"
	"testing"

	"semjoin/internal/gsql"
	"semjoin/internal/obs"
)

// workerDependent reports whether a counter series legitimately
// differs between serial and parallel executions: exchange traffic
// and parallel-build bookkeeping only exist when workers fan out.
func workerDependent(name string) bool {
	for _, s := range []string{"exchange", "worker", "parallel"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// TestMetricsParitySerialVsParallel is the differential harness lifted
// from tuples to telemetry: the same seeded query stream runs on a
// serial and a parallel engine, each over its own identical fixture
// (separate gL caches) and its own registry, and every counter that is
// not inherently worker-dependent must agree exactly. Divergence means
// an operator is over- or under-counting in one execution mode — e.g.
// a morsel source scan double-counting rows the exchange input already
// counted.
func TestMetricsParitySerialVsParallel(t *testing.T) {
	const seed = 1117
	queries := 40
	if testing.Short() {
		queries = 12
	}
	// Two fixtures from one seed: identical data, independent gL caches
	// — a shared cache would let the first engine's misses become the
	// second engine's hits.
	serialFix, parFix := mustBuild(t, seed), mustBuild(t, seed)
	serial := gsql.NewEngine(serialFix.Cat)
	serial.Parallelism = 1
	serial.Obs = obs.NewRegistry()
	serial.Queries = obs.NewQueryLog()
	par := gsql.NewEngine(parFix.Cat)
	par.Parallelism = 4
	par.Obs = obs.NewRegistry()
	par.Queries = obs.NewQueryLog()

	gen := NewGen(seed, serialFix.Vocab)
	ran := 0
	for ran < queries {
		q := gen.Query()
		// LIMIT plans early-stop serially, but exchange workers process
		// every morsel eagerly, so per-operator row counts legitimately
		// diverge; parity is asserted over the exhaustive plans only.
		if strings.Contains(q, " limit ") {
			continue
		}
		ran++
		outS, errS := serial.Query(q)
		outP, errP := par.Query(q)
		if errS != nil || errP != nil {
			t.Fatalf("query %q: serial err=%v, parallel err=%v", q, errS, errP)
		}
		if d := Diff(outS, outP); d != "" {
			t.Fatalf("query %q: result mismatch: %s", q, d)
		}
	}

	sv, pv := serial.Obs.CounterValues(), par.Obs.CounterValues()
	for name, v := range sv {
		if workerDependent(name) {
			continue
		}
		if pv[name] != v {
			t.Errorf("counter %s: serial %d, parallel %d", name, v, pv[name])
		}
	}
	for name, v := range pv {
		if workerDependent(name) {
			continue
		}
		if _, ok := sv[name]; !ok {
			t.Errorf("counter %s (= %d) recorded only by the parallel engine", name, v)
		}
	}
	// Sanity: the comparison must not be vacuous — the stream has to
	// have produced query and operator counters on both sides.
	if sv["gsql_queries_total"] != int64(ran) || pv["gsql_queries_total"] != int64(ran) {
		t.Fatalf("gsql_queries_total: serial %d, parallel %d, want %d",
			sv["gsql_queries_total"], pv["gsql_queries_total"], ran)
	}
	hasOpRows := false
	for name := range sv {
		if strings.HasPrefix(name, "rel_op_rows_total") {
			hasOpRows = true
		}
	}
	if !hasOpRows {
		t.Fatal("no per-operator row counters recorded")
	}
}
