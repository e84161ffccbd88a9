package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"semjoin/internal/graph"
	"semjoin/internal/obs"
)

func glTestRel(n int) glPairs {
	pairs := glPairs{}
	for i := 0; i < n; i++ {
		pairs[[2]graph.VertexID{graph.VertexID(i), graph.VertexID(i + 1)}] = true
	}
	return pairs
}

func TestGLCacheLRUEviction(t *testing.T) {
	// One shard would make capacity exact; with 16 shards a total cap of
	// 16 gives one slot per shard, so inserting two keys landing in the
	// same shard must evict the older.
	c := newGLCacheCap(16)
	ctx := context.Background()
	computes := 0
	get := func(key string) {
		_, _, err := c.getOrCompute(ctx, key, glStamp{}, func() (glPairs, error) {
			computes++
			return glTestRel(2), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Insert far more keys than capacity: the resident count must stay
	// at or below 16 regardless of shard skew.
	for i := 0; i < 100; i++ {
		get(fmt.Sprintf("key-%d", i))
	}
	if n, _ := c.stats(); n > 16 {
		t.Fatalf("resident entries = %d, want <= 16", n)
	}
	if got := c.resident.Load(); got > 16 {
		t.Fatalf("resident gauge = %d, want <= 16", got)
	}

	// An entry touched on every round survives while cold keys churn
	// past it (LRU, not FIFO): re-getting it must not recompute. Total
	// cap 32 = two slots per shard, room for the hot key plus churn.
	c2 := newGLCacheCap(32)
	gets := 0
	hot := func() {
		_, hit, err := c2.getOrCompute(ctx, "hot", glStamp{}, func() (glPairs, error) {
			gets++
			return glTestRel(1), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = hit
	}
	hot()
	sh := c2.shard("hot")
	for i := 0; gets == 1 && i < 200; i++ {
		// Cold keys in the hot key's shard push toward its eviction; the
		// refresh below must keep rescuing it.
		key := fmt.Sprintf("cold-%d", i)
		if c2.shard(key) == sh {
			_, _, _ = c2.getOrCompute(ctx, key, glStamp{}, func() (glPairs, error) {
				return glTestRel(1), nil
			})
		}
		hot()
	}
	if gets != 1 {
		t.Fatalf("hot key recomputed %d times; LRU should have kept it", gets)
	}
}

func TestGLCacheObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	c := newGLCacheCap(0) // unbounded: no evictions in this test
	compute := func() (glPairs, error) { return glTestRel(3), nil }
	if _, hit, _ := c.getOrCompute(ctx, "a", glStamp{}, compute); hit {
		t.Fatal("first get should miss")
	}
	if _, hit, _ := c.getOrCompute(ctx, "a", glStamp{}, compute); !hit {
		t.Fatal("second get should hit")
	}
	vals := reg.CounterValues()
	if vals["core_gl_misses_total"] != 1 || vals["core_gl_hits_total"] != 1 {
		t.Fatalf("counters = %v", vals)
	}
	if reg.Gauge("core_gl_entries").Value() != 1 {
		t.Fatalf("entries gauge = %d", reg.Gauge("core_gl_entries").Value())
	}
	if reg.Gauge("core_gl_tuples").Value() != 3 {
		t.Fatalf("tuples gauge = %d", reg.Gauge("core_gl_tuples").Value())
	}
}

func TestGLCacheSingleflightCoalesce(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	c := newGLCacheCap(0)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.getOrCompute(ctx, "k", glStamp{}, func() (glPairs, error) {
			close(started)
			<-release
			return glTestRel(1), nil
		})
	}()
	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, hit, _ := c.getOrCompute(ctx, "k", glStamp{}, func() (glPairs, error) {
			t.Error("coalesced caller must not recompute")
			return nil, nil
		})
		if !hit {
			t.Error("coalesced caller should report hit")
		}
	}()
	// The coalesce counter is incremented before the second caller
	// blocks on the in-flight entry; releasing only after it ticks
	// guarantees the caller really rode along.
	for reg.CounterValues()["core_gl_coalesces_total"] == 0 {
		runtime.Gosched()
	}
	close(release)
	<-done
	wg.Wait()
	if n := reg.CounterValues()["core_gl_coalesces_total"]; n != 1 {
		t.Fatalf("coalesces = %d, want 1", n)
	}
}

func TestGLCacheErrorNotCached(t *testing.T) {
	c := newGLCacheCap(16)
	ctx := context.Background()
	calls := 0
	fail := func() (glPairs, error) { calls++; return nil, fmt.Errorf("boom") }
	if _, _, err := c.getOrCompute(ctx, "e", glStamp{}, fail); err == nil {
		t.Fatal("want error")
	}
	if _, _, err := c.getOrCompute(ctx, "e", glStamp{}, fail); err == nil {
		t.Fatal("want error on retry")
	}
	if calls != 2 {
		t.Fatalf("compute calls = %d, want 2 (errors must not be cached)", calls)
	}
	if n, _ := c.stats(); n != 0 {
		t.Fatalf("resident after errors = %d, want 0", n)
	}
}

// TestGLCacheStaleStampIsMiss pins the freshness rule: an entry
// computed at another stamp is a miss, the key's entry is replaced by
// the new computation, and a caller already waiting on the old
// in-flight computation still receives that computation's result.
func TestGLCacheStaleStampIsMiss(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	c := newGLCacheCap(0)
	old, cur := glStamp{graph: 1, base1: 7, base2: 7}, glStamp{graph: 2, base1: 7, base2: 7}
	noCompute := func() (glPairs, error) {
		t.Error("a current entry must be served, not recomputed")
		return nil, nil
	}

	if _, hit, _ := c.getOrCompute(ctx, "k", old, func() (glPairs, error) { return glTestRel(3), nil }); hit {
		t.Fatal("first get should miss")
	}
	pairs, hit, err := c.getOrCompute(ctx, "k", cur, func() (glPairs, error) { return glTestRel(1), nil })
	if err != nil || hit || len(pairs) != 1 {
		t.Fatalf("entry from an older stamp: hit=%v pairs=%d err=%v, want a miss recomputed to 1 pair", hit, len(pairs), err)
	}
	if pairs, hit, _ := c.getOrCompute(ctx, "k", cur, noCompute); !hit || len(pairs) != 1 {
		t.Fatalf("replacement entry: hit=%v pairs=%d, want hit with 1 pair", hit, len(pairs))
	}
	if n, tuples := c.stats(); n != 1 || tuples != 1 {
		t.Fatalf("stats = %d sets / %d pairs, want the replacement only (1/1)", n, tuples)
	}
	if got := c.resident.Load(); got != 1 {
		t.Fatalf("resident gauge = %d, want 1", got)
	}

	// A computation at stamp `cur` is in flight with one waiter when the
	// state moves on to `next`: the waiter keeps the old result, the new
	// caller computes its own, and only the new one stays resident.
	next := glStamp{graph: 3, base1: 7, base2: 7}
	c.clear()
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, _ = c.getOrCompute(ctx, "k", cur, func() (glPairs, error) {
			close(started)
			<-release
			return glTestRel(5), nil
		})
	}()
	<-started
	coalesced := reg.CounterValues()["core_gl_coalesces_total"]
	go func() {
		defer wg.Done()
		pairs, hit, err := c.getOrCompute(ctx, "k", cur, noCompute)
		if err != nil || !hit || len(pairs) != 5 {
			t.Errorf("waiter on the replaced computation: hit=%v pairs=%d err=%v, want its 5 pairs", hit, len(pairs), err)
		}
	}()
	for reg.CounterValues()["core_gl_coalesces_total"] == coalesced {
		runtime.Gosched()
	}
	pairs, hit, err = c.getOrCompute(ctx, "k", next, func() (glPairs, error) { return glTestRel(2), nil })
	if err != nil || hit || len(pairs) != 2 {
		t.Fatalf("newer stamp over an in-flight entry: hit=%v pairs=%d err=%v, want a miss with 2 pairs", hit, len(pairs), err)
	}
	close(release)
	wg.Wait()
	if n, tuples := c.stats(); n != 1 || tuples != 2 {
		t.Fatalf("stats = %d sets / %d pairs, want the newest only (1/2)", n, tuples)
	}
	if got := c.resident.Load(); got != 1 {
		t.Fatalf("resident gauge = %d, want 1", got)
	}
}
