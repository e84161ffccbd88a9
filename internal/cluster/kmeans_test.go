package cluster

import (
	"runtime"
	"testing"

	"semjoin/internal/mat"
)

// mustKMeans runs KMeans and fails the test on a configuration error.
func mustKMeans(t *testing.T, pts []mat.Vector, cfg Config) Result {
	t.Helper()
	res, err := KMeans(pts, cfg)
	if err != nil {
		t.Fatalf("KMeans: %v", err)
	}
	return res
}

// blobs generates n points around each of the given centres with the given
// spread.
func blobs(centres []mat.Vector, n int, spread float64, seed uint64) ([]mat.Vector, []int) {
	rng := mat.NewRNG(seed)
	var pts []mat.Vector
	var truth []int
	for ci, c := range centres {
		for i := 0; i < n; i++ {
			p := c.Clone()
			for d := range p {
				p[d] += rng.NormFloat64() * spread
			}
			pts = append(pts, p)
			truth = append(truth, ci)
		}
	}
	return pts, truth
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	centres := []mat.Vector{{0, 0}, {10, 10}, {-10, 10}}
	pts, truth := blobs(centres, 40, 0.5, 3)
	res := mustKMeans(t, pts, Config{K: 3, Seed: 5})
	// Every ground-truth blob must map to exactly one cluster id.
	blobToCluster := map[int]int{}
	for i, g := range truth {
		c := res.Assign[i]
		if prev, ok := blobToCluster[g]; ok {
			if prev != c {
				t.Fatalf("blob %d split across clusters %d and %d", g, prev, c)
			}
		} else {
			blobToCluster[g] = c
		}
	}
	if len(blobToCluster) != 3 {
		t.Fatalf("expected 3 distinct clusters, got %d", len(blobToCluster))
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	pts, _ := blobs([]mat.Vector{{0, 0}, {8, 8}, {-8, 8}, {8, -8}}, 30, 1.0, 7)
	var last float64
	for i, k := range []int{1, 2, 4, 8} {
		res := mustKMeans(t, pts, Config{K: k, Seed: 2})
		if i > 0 && res.Inertia > last {
			t.Fatalf("inertia should not increase with K: k=%d %.2f > %.2f", k, res.Inertia, last)
		}
		last = res.Inertia
	}
}

// TestKMeansDeterministic pins that the worker count (GOMAXPROCS) does
// not change the assignment for a fixed seed.
func TestKMeansDeterministic(t *testing.T) {
	pts, _ := blobs([]mat.Vector{{0, 0}, {5, 5}}, 25, 0.8, 9)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := mustKMeans(t, pts, Config{K: 2, Seed: 4})
	runtime.GOMAXPROCS(4)
	b := mustKMeans(t, pts, Config{K: 2, Seed: 4})
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("parallelism must not change the result for a fixed seed")
		}
	}
}

func TestKMeansMoreClustersThanPoints(t *testing.T) {
	pts := []mat.Vector{{0, 0}, {1, 1}}
	res := mustKMeans(t, pts, Config{K: 10, Seed: 1})
	if len(res.Centroids) != 2 {
		t.Fatalf("centroids = %d, want 2", len(res.Centroids))
	}
	if res.Assign[0] == res.Assign[1] {
		t.Fatal("two distinct points with K>=2 should separate")
	}
}

func TestKMeansSinglePointAndEmpty(t *testing.T) {
	res := mustKMeans(t, []mat.Vector{{3, 4}}, Config{K: 3})
	if len(res.Assign) != 1 || res.Assign[0] != 0 {
		t.Fatalf("single point: %+v", res)
	}
	empty := mustKMeans(t, nil, Config{K: 3})
	if empty.Assign != nil {
		t.Fatal("empty input should give empty result")
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	pts := make([]mat.Vector, 20)
	for i := range pts {
		pts[i] = mat.Vector{1, 2, 3}
	}
	res := mustKMeans(t, pts, Config{K: 4, Seed: 1})
	if res.Inertia != 0 {
		t.Fatalf("identical points inertia = %v", res.Inertia)
	}
}

func TestKMeansRejectsBadK(t *testing.T) {
	if _, err := KMeans([]mat.Vector{{1}}, Config{K: 0}); err == nil {
		t.Fatal("expected an error for K < 1")
	}
	if _, err := KMeans([]mat.Vector{{1}}, Config{K: -3}); err == nil {
		t.Fatal("expected an error for negative K")
	}
}

func TestInjectNoise(t *testing.T) {
	assign := make([]int, 100)
	orig := append([]int(nil), assign...)
	n := InjectNoise(assign, 5, 0.2, 11)
	if n != 20 {
		t.Fatalf("corrupted = %d, want 20", n)
	}
	changed := 0
	for i := range assign {
		if assign[i] != orig[i] {
			changed++
			if assign[i] < 0 || assign[i] >= 5 {
				t.Fatalf("invalid cluster id %d", assign[i])
			}
		}
	}
	if changed != 20 {
		t.Fatalf("changed = %d, want 20 (noise must move labels to *other* clusters)", changed)
	}
}

func TestInjectNoiseEdgeCases(t *testing.T) {
	assign := []int{0, 1, 0}
	if n := InjectNoise(assign, 1, 0.5, 1); n != 0 {
		t.Fatal("k<2 should be a no-op")
	}
	if n := InjectNoise(assign, 3, 0, 1); n != 0 {
		t.Fatal("frac=0 should be a no-op")
	}
}
