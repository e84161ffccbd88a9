// Package cluster implements the K-means clustering (KMC) step of §III-A:
// vertex-path pair embeddings are partitioned into H clusters so that
// paths with similar semantics land together. Assignment is parallelised
// across points (the paper parallelises KMC [38]); seeding uses k-means++
// for quality, and Lloyd iterations are capped as the paper's "limited
// iterations".
package cluster

import (
	"fmt"
	"runtime"
	"sync"

	"semjoin/internal/mat"
)

// Config parameterises KMeans. Zero fields take defaults.
type Config struct {
	K       int    // number of clusters H (required, >= 1)
	MaxIter int    // Lloyd iteration cap (default 25)
	Seed    uint64 // seeding RNG (default 1)
}

// Result is a clustering outcome.
type Result struct {
	// Assign maps each point index to its cluster in [0, K).
	Assign []int
	// Centroids are the final cluster centres (length K; empty clusters
	// keep their last centre).
	Centroids []mat.Vector
	// Inertia is the summed squared distance of points to their centres.
	Inertia float64
	// Iters is the number of Lloyd iterations executed.
	Iters int
}

// KMeans clusters points into cfg.K groups. Points must share one
// dimensionality; an empty input yields an empty Result. A
// non-positive K is a configuration error, reported rather than
// panicked so callers wiring user-supplied parameters (H from a query
// or a config file) get a diagnosable failure.
func KMeans(points []mat.Vector, cfg Config) (Result, error) {
	if len(points) == 0 {
		return Result{}, nil
	}
	if cfg.K < 1 {
		return Result{}, fmt.Errorf("cluster: K must be >= 1, got %d", cfg.K)
	}
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 25
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	k := cfg.K
	if k > len(points) {
		k = len(points)
	}
	dim := len(points[0])
	rng := mat.NewRNG(cfg.Seed)

	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}

	res := Result{Assign: assign, Centroids: centroids}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		res.Iters = iter + 1
		changed, inertia := assignAll(points, centroids, assign)
		res.Inertia = inertia
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		counts := make([]int, k)
		sums := make([]mat.Vector, k)
		for c := range sums {
			sums[c] = mat.NewVector(dim)
		}
		for i, c := range assign {
			counts[c]++
			sums[c].Add(points[i])
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Reseed an empty cluster at the point farthest from its
				// current centre to keep K live clusters.
				far, farD := 0, -1.0
				for i := range points {
					d := mat.SqDist(points[i], centroids[assign[i]])
					if d > farD {
						far, farD = i, d
					}
				}
				centroids[c] = points[far].Clone()
				continue
			}
			sums[c].Scale(1 / float64(counts[c]))
			centroids[c] = sums[c]
		}
		if !changed {
			break
		}
	}
	return res, nil
}

// seedPlusPlus picks k initial centroids with k-means++ (D² sampling).
func seedPlusPlus(points []mat.Vector, k int, rng *mat.RNG) []mat.Vector {
	centroids := make([]mat.Vector, 0, k)
	first := rng.Intn(len(points))
	centroids = append(centroids, points[first].Clone())
	d2 := make([]float64, len(points))
	for i := range points {
		d2[i] = mat.SqDist(points[i], centroids[0])
	}
	for len(centroids) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total == 0 {
			next = rng.Intn(len(points))
		} else {
			target := rng.Float64() * total
			acc := 0.0
			next = len(points) - 1
			for i, d := range d2 {
				acc += d
				if acc >= target {
					next = i
					break
				}
			}
		}
		c := points[next].Clone()
		centroids = append(centroids, c)
		for i := range points {
			if d := mat.SqDist(points[i], c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}

// assignAll reassigns every point to its nearest centroid on up to
// GOMAXPROCS workers and reports whether any assignment changed plus the
// total inertia.
func assignAll(points []mat.Vector, centroids []mat.Vector, assign []int) (bool, float64) {
	workers := min(runtime.GOMAXPROCS(0), len(points))
	type partial struct {
		changed bool
		inertia float64
	}
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	chunk := (len(points) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(points) {
			hi = len(points)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				best, bestD := 0, mat.SqDist(points[i], centroids[0])
				for c := 1; c < len(centroids); c++ {
					if d := mat.SqDist(points[i], centroids[c]); d < bestD {
						best, bestD = c, d
					}
				}
				if assign[i] != best {
					assign[i] = best
					parts[w].changed = true
				}
				parts[w].inertia += bestD
			}
		}(w, lo, hi)
	}
	wg.Wait()
	changed := false
	inertia := 0.0
	for _, p := range parts {
		changed = changed || p.changed
		inertia += p.inertia
	}
	return changed, inertia
}

// InjectNoise reassigns a fraction of points to uniformly random other
// clusters, returning the number of corrupted labels. Exp-2(b)(4) uses it
// to measure RExt's robustness to clustering errors (Fig 5(f)).
func InjectNoise(assign []int, k int, frac float64, seed uint64) int {
	if k < 2 || frac <= 0 {
		return 0
	}
	rng := mat.NewRNG(seed)
	n := int(float64(len(assign)) * frac)
	perm := rng.Perm(len(assign))
	for i := 0; i < n && i < len(perm); i++ {
		p := perm[i]
		old := assign[p]
		nc := rng.Intn(k - 1)
		if nc >= old {
			nc++
		}
		assign[p] = nc
	}
	if n > len(assign) {
		n = len(assign)
	}
	return n
}
