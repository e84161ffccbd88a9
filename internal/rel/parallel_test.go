package rel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"semjoin/internal/obs"
)

// numbered builds a single-column relation 0..n-1.
func numbered(n int) *Relation {
	r := NewRelation(NewSchema("nums", "", Attribute{Name: "x", Type: KindInt}))
	for i := 0; i < n; i++ {
		r.InsertVals(I(int64(i)))
	}
	return r
}

func evenPred(t Tuple) bool { return t[0].Int()%2 == 0 }

func TestExchangeMatchesSerialExactly(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1000, 1024} {
		for _, p := range []int{1, 2, 4, 7} {
			r := numbered(n)
			build := func(in Iterator) Iterator { return NewSelect(in, evenPred) }
			serial, err := Materialize(nil, build(NewScan(r)))
			if err != nil {
				t.Fatal(err)
			}
			par, err := Materialize(nil, NewExchange(NewScanSize(r, 64), p, build))
			if err != nil {
				t.Fatal(err)
			}
			if len(par.Tuples) != len(serial.Tuples) {
				t.Fatalf("n=%d p=%d: %d rows, want %d", n, p, len(par.Tuples), len(serial.Tuples))
			}
			// Order-preserving merge: the exact serial tuple sequence.
			for i := range par.Tuples {
				if !par.Tuples[i][0].Equal(serial.Tuples[i][0]) {
					t.Fatalf("n=%d p=%d: row %d = %v, want %v", n, p, i, par.Tuples[i], serial.Tuples[i])
				}
			}
		}
	}
}

func TestExchangeLimitDeterministic(t *testing.T) {
	// LIMIT without ORDER BY is only deterministic because the exchange
	// merges morsels in index order.
	r := numbered(500)
	build := func(in Iterator) Iterator { return NewSelect(in, evenPred) }
	for i := 0; i < 5; i++ {
		out, err := Materialize(nil, NewLimit(NewExchange(NewScanSize(r, 32), 4, build), 10))
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 10 {
			t.Fatalf("limit rows = %d", out.Len())
		}
		for j, tp := range out.Tuples {
			if tp[0].Int() != int64(2*j) {
				t.Fatalf("run %d row %d = %d, want %d", i, j, tp[0].Int(), 2*j)
			}
		}
	}
}

func TestExchangeWorkersStat(t *testing.T) {
	r := numbered(300)
	ex := NewExchange(NewScanSize(r, 64), 4, func(in Iterator) Iterator { return in })
	if _, err := Materialize(nil, ex); err != nil {
		t.Fatal(err)
	}
	// 300 rows in batches of 64 = 5 morsels, capped by p=4.
	if got := ex.Stats().Workers; got != 4 {
		t.Fatalf("workers = %d, want 4", got)
	}
	line := CollectStats(ex).Lines[0].String()
	if want := "workers=4"; !contains(line, want) {
		t.Fatalf("plan line %q missing %q", line, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestExchangeSubPipelineError(t *testing.T) {
	boom := errors.New("boom")
	r := numbered(400)
	ex := NewExchange(NewScanSize(r, 64), 4, func(in Iterator) Iterator {
		return NewApply("explode", []Iterator{in}, func(_ context.Context, ins []*Relation) (*Relation, string, error) {
			for _, tp := range ins[0].Tuples {
				if tp[0].Int() == 137 {
					return nil, "", boom
				}
			}
			return ins[0], "", nil
		})
	})
	_, err := Materialize(nil, ex)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestExchangeNilBuilder(t *testing.T) {
	if _, err := Materialize(nil, NewExchange(NewScan(numbered(3)), 2, nil)); err == nil {
		t.Fatal("nil builder should error")
	}
}

// settleGoroutines polls until the goroutine count returns to at most
// base (with slack for runtime helpers) or the deadline expires.
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

func TestExchangeCancellationLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	r := numbered(10000)
	slow := func(in Iterator) Iterator {
		return NewSelect(in, func(Tuple) bool {
			time.Sleep(50 * time.Microsecond)
			return true
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	ex := NewExchange(NewScanSize(r, 16), 4, slow)
	if err := ex.Open(ctx); err != nil {
		ex.Close()
		t.Fatal(err)
	}
	// Drain a few batches, then cancel mid-stream.
	for i := 0; i < 3; i++ {
		if _, err := ex.NextBatch(); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	for {
		b, err := ex.NextBatch()
		if err != nil || b == nil {
			break
		}
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
}

func TestExchangeCloseWithoutDrainLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	ex := NewExchange(NewScanSize(numbered(5000), 16), 8,
		func(in Iterator) Iterator { return NewSelect(in, evenPred) })
	if err := ex.Open(context.Background()); err != nil {
		ex.Close()
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)
}

func TestBuildPartitionedCoversAllKeys(t *testing.T) {
	r := NewRelation(NewSchema("b", "", Attribute{Name: "k", Type: KindInt}))
	for i := 0; i < 1000; i++ {
		r.InsertVals(I(int64(i % 50)))
	}
	r.InsertVals(Null) // null keys never enter the table
	b := NewBatch(r.Schema)
	for _, tp := range r.Tuples {
		b.AppendTuple(tp)
	}
	parts := buildPartitioned(b, 0, 4)
	total := 0
	for _, p := range parts {
		for _, chain := range p {
			total += len(chain)
		}
	}
	if total != 1000 {
		t.Fatalf("partitioned %d rows, want 1000", total)
	}
	for k := 0; k < 50; k++ {
		key, ok := I(int64(k)).HashKey()
		if !ok {
			t.Fatalf("key %d unexpectedly null", k)
		}
		chain := parts[valuePartition(key, 4)][key]
		if len(chain) != 20 {
			t.Fatalf("key %d chain = %d, want 20", k, len(chain))
		}
	}
}

func TestExchangeGeneratorSchemaProbe(t *testing.T) {
	// A sub-pipeline whose schema is only known after Open (NewGenerate)
	// still resolves under an exchange via the empty-input probe.
	r := numbered(100)
	build := func(in Iterator) Iterator {
		return NewGenerate("gen", []Iterator{in}, func(ctx context.Context, ins []*Batch) (Generated, error) {
			src := ins[0]
			return Generated{Schema: src.Schema(), Pull: func() (*Batch, error) {
				b := src
				src = nil
				if b == nil || b.Rows() == 0 {
					return nil, nil
				}
				return b, nil
			}}, nil
		})
	}
	out, err := Materialize(nil, NewExchange(NewScanSize(r, 16), 3, build))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 100 {
		t.Fatalf("rows = %d, want 100", out.Len())
	}
	for i, tp := range out.Tuples {
		if tp[0].Int() != int64(i) {
			t.Fatalf("row %d = %v", i, tp)
		}
	}
}

// BenchmarkParallelHashJoin measures the hash join with its
// partitioned parallel build at P ∈ {1, 2, GOMAXPROCS}. Only the build
// side parallelises, so the end-to-end speedup is bounded by the
// probe's serial share.
func BenchmarkParallelHashJoin(b *testing.B) {
	build := NewRelation(NewSchema("b", "", Attribute{Name: "k", Type: KindInt}, Attribute{Name: "v", Type: KindInt}))
	for i := 0; i < 200000; i++ {
		build.InsertVals(I(int64(i%50021)), I(int64(i)))
	}
	probe := NewRelation(NewSchema("p", "", Attribute{Name: "k", Type: KindInt}, Attribute{Name: "w", Type: KindInt}))
	for i := 0; i < 20000; i++ {
		probe.InsertVals(I(int64(i%60013)), I(int64(i)))
	}
	for _, p := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Materialize(nil, NewHashJoinP(NewScan(probe), NewScan(build), "k", "k", false, p)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelHashJoinObs isolates the metrics layer's cost on
// the hash-join path: the identical join with a nil context (every
// obs call a nil-receiver no-op, the shipped default) and with a live
// registry on the context recording build-row counters and per-op row
// totals. The acceptance bar for the observability work is < 3%
// overhead with metrics enabled.
func BenchmarkParallelHashJoinObs(b *testing.B) {
	build := NewRelation(NewSchema("b", "", Attribute{Name: "k", Type: KindInt}, Attribute{Name: "v", Type: KindInt}))
	for i := 0; i < 200000; i++ {
		build.InsertVals(I(int64(i%50021)), I(int64(i)))
	}
	probe := NewRelation(NewSchema("p", "", Attribute{Name: "k", Type: KindInt}, Attribute{Name: "w", Type: KindInt}))
	for i := 0; i < 20000; i++ {
		probe.InsertVals(I(int64(i%60013)), I(int64(i)))
	}
	for _, bc := range []struct {
		name string
		ctx  context.Context
	}{
		{"metrics=off", nil},
		{"metrics=on", obs.WithRegistry(context.Background(), obs.NewRegistry())},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Materialize(bc.ctx, NewHashJoinP(NewScan(probe), NewScan(build), "k", "k", false, 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExchangeSelect(b *testing.B) {
	r := numbered(100000)
	build := func(in Iterator) Iterator {
		return NewSelect(in, func(tp Tuple) bool {
			// A predicate with some arithmetic weight per tuple.
			x := tp[0].Int()
			return (x*2654435761)%7 == 0
		})
	}
	for _, p := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Materialize(nil, NewExchange(NewScan(r), p, build)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
