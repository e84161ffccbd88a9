// Parallel kernels for the semantic-join hot paths. The dominant cost
// of link joins is the per-source-vertex k-hop BFS fan-out, which is
// embarrassingly parallel across distinct source vertices; this file
// provides the bounded worker pool that computes it, and the
// shard-locked singleflight cache that lets concurrent queries share
// gL connectivity relations without duplicating BFS work. The graph
// read path (Neighbors/Out/In/Live) is goroutine-safe once mutation
// has stopped, which is the regime every pool here runs in.
package core

import (
	"container/list"
	"context"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/obs"
)

// normPar resolves a degree-of-parallelism knob: any value <= 0 means
// "one worker per logical CPU" (GOMAXPROCS).
func normPar(par int) int {
	if par <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return par
}

// glPairs is one gL connectivity set: the (vid1, vid2) pairs, over the
// matched vertices of two tuple sets, that lie within k hops.
type glPairs map[[2]graph.VertexID]bool

// connectedPairs computes the connectivity set for the matched vertices
// of two tuple sets, with the per-vertex BFS fan-out parallelised over
// par workers.
func connectedPairs(ctx context.Context, g *graph.Graph, m1, m2 []her.Match, k, par int) (glPairs, error) {
	reach, _, err := reachSets(ctx, g, m1, k, par)
	if err != nil {
		return nil, err
	}
	pairs := glPairs{}
	for _, a := range m1 {
		if _, ok := reach.rows[a.Vertex]; !ok {
			continue
		}
		for _, b := range m2 {
			if reach.connected(a.Vertex, b.Vertex) {
				pairs[[2]graph.VertexID{a.Vertex, b.Vertex}] = true
			}
		}
	}
	return pairs, nil
}

// ------------------------------------------------------------ gL cache

const glShards = 16

// DefaultGLCacheCap bounds the total number of resident gL sets across
// all shards. Long-running engines see an unbounded stream of distinct
// predicate pairs, so without a cap the cache grows without limit; 256
// sets comfortably covers a working set of repeated queries.
const DefaultGLCacheCap = 256

var glHashSeed = maphash.MakeSeed()

// glStamp is the state a connectivity set was derived from: the graph's
// mutation count and the generations of the two bases whose matches fed
// the BFS. An entry whose stamp differs from the caller's is out of
// date.
type glStamp struct {
	graph, base1, base2 uint64
}

// glEntry is one in-flight or completed gL computation, at its place in
// its shard's LRU list. ready is closed once pairs/err are set.
type glEntry struct {
	key   string
	stamp glStamp
	elem  *list.Element
	ready chan struct{}
	pairs glPairs
	err   error
}

// completed reports whether e's computation has finished.
func (e *glEntry) completed() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

type glShard struct {
	mu  sync.Mutex
	m   map[string]*glEntry
	lru *list.List // front = most recently used; values are *glEntry
	cap int        // max entries in this shard, 0 = unbounded
}

// glCache is the shard-locked singleflight cache of gL connectivity
// sets: concurrent queries with the same predicate key and state share
// one BFS computation — the first caller computes while the rest wait.
// Each shard keeps an LRU list so the resident set stays under a cap;
// in-flight computations are pinned (never evicted mid-compute).
type glCache struct {
	shards   [glShards]glShard
	resident atomic.Int64 // completed, non-error entries across shards
	tuples   atomic.Int64 // their total pair count
}

func newGLCache() *glCache { return newGLCacheCap(DefaultGLCacheCap) }

// newGLCacheCap returns a cache of at most total resident sets, split
// evenly over the shards (at least one each); total <= 0 removes the
// bound.
func newGLCacheCap(total int) *glCache {
	c := &glCache{}
	per := 0
	if total > 0 {
		per = max(total/glShards, 1)
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*glEntry)
		c.shards[i].lru = list.New()
		c.shards[i].cap = per
	}
	return c
}

// dropLocked takes e out of its shard and, if it had completed, out of
// the resident gauges (a failed computation removes itself and is never
// counted). Caller holds sh.mu.
func (c *glCache) dropLocked(sh *glShard, e *glEntry) {
	sh.lru.Remove(e.elem)
	delete(sh.m, e.key)
	if e.completed() {
		c.resident.Add(-1)
		c.tuples.Add(-int64(len(e.pairs)))
	}
}

// clear drops every completed entry from every shard. Entries still
// computing are kept: removing them would detach their singleflight
// waiters.
func (c *glCache) clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			if e.completed() {
				c.dropLocked(sh, e)
			}
		}
		sh.mu.Unlock()
	}
}

func (c *glCache) shard(key string) *glShard {
	return &c.shards[maphash.String(glHashSeed, key)%glShards]
}

// evictLocked drops least-recently-used completed entries until the
// shard fits its cap. Entries still computing are skipped: evicting
// them would detach waiters from the singleflight. Caller holds sh.mu.
func (c *glCache) evictLocked(sh *glShard, reg *obs.Registry) {
	if sh.cap <= 0 {
		return
	}
	for sh.lru.Len() > sh.cap {
		el := sh.lru.Back()
		for el != nil && !el.Value.(*glEntry).completed() {
			el = el.Prev() // in-flight; pinned
		}
		if el == nil {
			return // everything over cap is still computing
		}
		c.dropLocked(sh, el.Value.(*glEntry))
		reg.Counter("core_gl_evictions_total").Inc()
	}
}

func (c *glCache) updateGauges(reg *obs.Registry) {
	reg.Gauge("core_gl_entries").Set(c.resident.Load())
	reg.Gauge("core_gl_tuples").Set(c.tuples.Load())
}

// getOrCompute returns the connectivity set cached under key for the
// state stamp names, computing it at most once across concurrent
// callers. hit reports whether the value existed (or was being computed
// by someone else) before this call. An entry computed at another stamp
// is a miss: it is dropped for the new computation, and callers already
// waiting on it still receive its result. Errors are not cached: a
// failed computation is dropped so the next caller retries. Cache
// traffic is reported to the registry on ctx (hits, misses,
// singleflight coalesces, evictions, resident gauges).
func (c *glCache) getOrCompute(ctx context.Context, key string, stamp glStamp, compute func() (glPairs, error)) (pairs glPairs, hit bool, err error) {
	reg := obs.FromContext(ctx)
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		if e.stamp == stamp {
			sh.lru.MoveToFront(e.elem)
			sh.mu.Unlock()
			if e.completed() {
				reg.Counter("core_gl_hits_total").Inc()
			} else {
				// Someone else is computing this key right now; we ride
				// along on their result instead of duplicating the BFS.
				reg.Counter("core_gl_coalesces_total").Inc()
			}
			select {
			case <-e.ready:
				return e.pairs, true, e.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		c.dropLocked(sh, e) // derived from an older state
	}
	e := &glEntry{key: key, stamp: stamp, ready: make(chan struct{})}
	e.elem = sh.lru.PushFront(e)
	sh.m[key] = e
	c.evictLocked(sh, reg)
	sh.mu.Unlock()
	reg.Counter("core_gl_misses_total").Inc()

	e.pairs, e.err = compute()
	sh.mu.Lock()
	// Publish the result only while the shard still holds this
	// computation: a newer stamp may have dropped it meanwhile. ready is
	// closed under the lock so that completed entries are exactly the
	// counted ones.
	if sh.m[key] == e {
		if e.err != nil {
			sh.lru.Remove(e.elem)
			delete(sh.m, key)
		} else {
			c.resident.Add(1)
			c.tuples.Add(int64(len(e.pairs)))
		}
	}
	close(e.ready)
	sh.mu.Unlock()
	c.updateGauges(reg)
	return e.pairs, false, e.err
}

// stats counts completed cache entries and their total pairs.
// In-flight computations are not counted.
func (c *glCache) stats() (relations, tuples int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			if e.completed() {
				relations++
				tuples += len(e.pairs)
			}
		}
		sh.mu.Unlock()
	}
	return
}
