package difftest

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"semjoin/internal/gsql"
)

// mustBuild constructs a fixture, failing the test on error.
func mustBuild(t testing.TB, seed int64) *Fixture {
	t.Helper()
	f, err := Build(seed)
	if err != nil {
		t.Fatalf("Build(%d): %v", seed, err)
	}
	// The harnesses' seeds must keep every e-join attribute in play.
	if !slices.Equal(f.Vocab.EJoin, Vocabulary.EJoin) {
		t.Fatalf("Build(%d) extracted %v for product, want %v", seed, f.Vocab.EJoin, Vocabulary.EJoin)
	}
	return f
}

// TestDifferentialSerialVsParallel is the differential harness proper:
// for each fixture seed it generates a stream of random queries and
// checks (Agree) that the reference evaluator, a serial engine
// (Parallelism = 1), a parallel engine, and the parallel engine
// gL-cache-cold and cache-warm produce the same bag of tuples, ordered
// alike, for every one. In full (non-short) mode it covers at least 200
// query/fixture pairs.
func TestDifferentialSerialVsParallel(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	queriesPer := 60
	if testing.Short() {
		seeds = seeds[:2]
		queriesPer = 15
	}
	pairs := 0
	for _, seed := range seeds {
		f := mustBuild(t, seed)
		gen := NewGen(seed*1000+7, f.Vocab)
		for i := 0; i < queriesPer; i++ {
			if err := Agree(f.Cat, gen.Query()); err != nil {
				t.Errorf("seed %d query %d: %v", seed, i, err)
			}
			pairs++
		}
	}
	if !testing.Short() && pairs < 200 {
		t.Fatalf("harness covered only %d pairs, want >= 200", pairs)
	}
	t.Logf("compared %d query/fixture pairs", pairs)
}

// TestFixtureDeterminism pins that Build is a pure function of its
// seed — without this, failures found by seed would not reproduce.
func TestFixtureDeterminism(t *testing.T) {
	a, b := mustBuild(t, 9), mustBuild(t, 9)
	for _, name := range []string{"product", "customer"} {
		if d := Diff(a.Cat.Relations[name], b.Cat.Relations[name]); d != "" {
			t.Fatalf("fixture %q not deterministic: %s", name, d)
		}
	}
	if c := mustBuild(t, 10); Diff(a.Cat.Relations["product"], c.Cat.Relations["product"]) == "" &&
		Diff(a.Cat.Relations["customer"], c.Cat.Relations["customer"]) == "" {
		t.Fatal("different seeds produced identical fixtures")
	}
}

// settleGoroutines polls until the goroutine count returns to at most
// base or the deadline expires.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d > %d", runtime.NumGoroutine(), base)
}

// TestCancellationLeavesNoGoroutines cancels parallel queries
// mid-flight — both with a context that dies while the query runs and
// with one cancelled before the query starts — and checks the worker
// pools wind down completely.
func TestCancellationLeavesNoGoroutines(t *testing.T) {
	f := mustBuild(t, 3)
	e := gsql.NewEngine(f.Cat)
	e.Parallelism = 4
	// Warm the engine (and the fixture's gL cache) so the settle
	// baseline is taken after any lazily started runtime helpers.
	if _, err := e.Query(`select pid from product`); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	heavy := `select c.cid, p.pid from customer as c, product as p
		where c.bal >= 40000 and p.price >= 60 order by c.cid, p.pid`
	for i := 0; i < 30; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		// Race the cancel against the query so some iterations cancel
		// mid-drain and some complete.
		go func() {
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
			cancel()
		}()
		out, err := e.QueryContext(ctx, heavy)
		if err == nil && out == nil {
			t.Fatal("nil relation without error")
		}
		if err != nil && !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("iteration %d: unexpected error: %v", i, err)
		}
		cancel()
	}
	// A context cancelled before the query starts must fail fast.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, heavy); err == nil {
		t.Fatal("pre-cancelled context should error")
	}
	settleGoroutines(t, base)
}
