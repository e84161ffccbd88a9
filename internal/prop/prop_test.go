package prop

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

// propRounds is the number of seeds each property checks. The default
// keeps `go test ./internal/prop` comfortably inside a CI budget even
// under -race; raise it for soak runs:
//
//	go test ./internal/prop -prop.rounds=50
var propRounds = flag.Int("prop.rounds", 3, "seeds per property (raise for long mode)")

// seedsFor resolves which seeds to run: PROP_SEED=<n> replays exactly
// that seed (the recipe a failure report prints), otherwise a fixed
// deterministic ladder of *propRounds seeds.
func seedsFor(t *testing.T) []int64 {
	if env := os.Getenv("PROP_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("PROP_SEED=%q is not an integer: %v", env, err)
		}
		t.Logf("replaying PROP_SEED=%d", v)
		return []int64{v}
	}
	out := make([]int64, *propRounds)
	for i := range out {
		out[i] = int64(100 + i)
	}
	return out
}

// runOracle drives one oracle through Hunt, logging the seed set (so
// any run can be replayed) and failing with the shrunk, replayable
// counterexample report.
func runOracle(t *testing.T, o Oracle) {
	seeds := seedsFor(t)
	t.Logf("prop: %s over seeds %v (replay one with: PROP_SEED=<n> go test ./internal/prop -run %s -prop.rounds=1)",
		o.Name, seeds, t.Name())
	ce := Hunt(o, seeds)
	if ce == nil {
		return
	}
	if path, err := ce.SaveArtifact(t.Name()); err != nil {
		t.Logf("could not save counterexample artifact: %v", err)
	} else if path != "" {
		t.Logf("counterexample saved to %s", path)
	}
	t.Fatal(ce.Report(t.Name()))
}

// TestIncExtOracle checks oracle 1: IncExt over random ΔG/ΔD/keyword
// streams equals fresh extraction on the final state.
func TestIncExtOracle(t *testing.T) {
	runOracle(t, Oracle{Name: "incext-vs-fresh", StreamLen: 8, Check: CheckIncExt})
}

// TestExecEquivalenceOracle checks oracle 2: the reference evaluator and
// serial, parallel, cache-cold and cache-warm executions agree on every
// generated query.
func TestExecEquivalenceOracle(t *testing.T) {
	runOracle(t, Oracle{Name: "exec-equivalence", Check: CheckExec})
}

// TestRewriteOracle checks oracle 3: gSQL e-join/l-join rewrites match
// direct evaluation of the join semantics outside the engine.
func TestRewriteOracle(t *testing.T) {
	runOracle(t, Oracle{Name: "rewrite-vs-direct", Check: CheckRewrite})
}

// TestPersistOracle checks oracle 4: persistence round-trips are
// behaviour-preserving.
func TestPersistOracle(t *testing.T) {
	runOracle(t, Oracle{Name: "persist-round-trip", Check: CheckPersist})
}

// TestConcurrentOracle checks oracle 6: N engines with divergent
// session settings racing over one catalog stay bag-equal to a lone
// serial engine on every generated query.
func TestConcurrentOracle(t *testing.T) {
	runOracle(t, Oracle{Name: "concurrent-vs-serial", Check: CheckConcurrent})
}

// TestFreshReadsOracle checks oracle 7: after every step of an update
// stream through a WAL-backed store, cache-warm reads, cache-cold reads
// and reads over a from-scratch materialisation of the current state
// agree.
func TestFreshReadsOracle(t *testing.T) {
	runOracle(t, Oracle{Name: "fresh-reads", StreamLen: 8, Check: CheckFreshReads})
}

// TestCrashRecoveryOracle checks oracle 8: a WAL-backed store that
// crashes at a seed-chosen record boundary and recovers must finish an
// update stream in the exact state of an uninterrupted run.
func TestCrashRecoveryOracle(t *testing.T) {
	runOracle(t, Oracle{Name: "crash-recovery", StreamLen: 6, Check: CheckCrashRecovery})
}

// TestSnapshotIsolationOracle checks oracle 9: reads racing an update
// stream each equal the same read on a from-scratch materialisation of
// exactly the WAL prefix they report having read.
func TestSnapshotIsolationOracle(t *testing.T) {
	runOracle(t, Oracle{Name: "snapshot-isolation", StreamLen: 16, Check: CheckSnapshotIsolation})
}

// TestForcedViolationIsCaughtAndShrunk is the harness's own regression
// test: with IncExt's delete maintenance deliberately broken
// (CheckIncExtBroken), the oracle must catch the divergence on some
// seed, shrink the stream, and emit a replayable PROP_SEED recipe. If
// this test fails, the oracle bank has lost its teeth.
func TestForcedViolationIsCaughtAndShrunk(t *testing.T) {
	o := Oracle{Name: "incext-broken-deletes", StreamLen: 8, Check: CheckIncExtBroken}
	// The fault only fires on streams that delete (or unmatch) an
	// extracted entity vertex; scan a bounded seed range for one.
	seeds := make([]int64, 30)
	for i := range seeds {
		seeds[i] = int64(500 + i)
	}
	ce := Hunt(o, seeds)
	if ce == nil {
		t.Fatalf("broken delete maintenance was not caught on any of %d seeds", len(seeds))
	}
	if len(ce.Stream) == 0 {
		t.Fatalf("counterexample shrunk to an empty stream; the failure cannot depend on no updates")
	}
	if len(ce.Stream) > o.StreamLen {
		t.Fatalf("shrinking grew the stream: %d > %d", len(ce.Stream), o.StreamLen)
	}
	// Determinism: the shrunk counterexample must still reproduce.
	if err := o.Check(ce.Seed, ce.Stream); err == nil {
		t.Fatalf("shrunk counterexample does not reproduce (seed %d, stream:\n%s)", ce.Seed, ce.Stream)
	}
	report := ce.Report(t.Name())
	if !strings.Contains(report, "PROP_SEED=") {
		t.Fatalf("report lacks the PROP_SEED replay recipe:\n%s", report)
	}
	t.Logf("forced violation caught and shrunk to %d steps / %d updates (%d checks):\n%s",
		len(ce.Stream), ce.Stream.Updates(), ce.Checks, report)
	// And the unbroken path must pass on the very same input: the
	// counterexample isolates the injected fault, not harness noise.
	if err := CheckIncExt(ce.Seed, ce.Stream); err != nil {
		t.Fatalf("healthy IncExt fails on the counterexample too — harness bug: %v", err)
	}
}
