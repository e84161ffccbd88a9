package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/obs"
)

// benchLinkGraph builds a connected synthetic graph (ring plus random
// chords, mean out-degree ~deg) and two match sets over its vertices —
// big enough that the k-hop BFS fan-out dominates the join.
func benchLinkGraph(n, deg, matches int) (*graph.Graph, []her.Match, []her.Match) {
	rng := rand.New(rand.NewSource(17))
	g := graph.New()
	verts := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		verts[i] = g.AddVertex(fmt.Sprintf("v%d", i), "entity")
	}
	for i := 0; i < n; i++ {
		g.AddEdge(verts[i], "next", verts[(i+1)%n])
		for d := 1; d < deg; d++ {
			g.AddEdge(verts[i], "link", verts[rng.Intn(n)])
		}
	}
	pick := func() []her.Match {
		ms := make([]her.Match, matches)
		for i := range ms {
			ms[i] = her.Match{TupleIdx: i, Vertex: verts[rng.Intn(n)], Score: 1}
		}
		return ms
	}
	return g, pick(), pick()
}

// BenchmarkParallelLinkJoin measures the gL connectivity computation —
// the link join's dominant cost — at P ∈ {1, 2, GOMAXPROCS}. The
// acceptance bar for the morsel-parallel work is >= 1.5x speedup at
// P = GOMAXPROCS on machines with >= 4 CPUs.
func BenchmarkParallelLinkJoin(b *testing.B) {
	g, m1, m2 := benchLinkGraph(4000, 6, 300)
	ctx := context.Background()
	for _, p := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := connectedPairs(ctx, g, m1, m2, 3, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelLinkJoinObs isolates the metrics layer's cost on
// the link-join hot path: the identical gL computation with no
// registry on the context (every obs call is a nil-receiver no-op,
// the shipped default) and with a live registry recording BFS
// counters and reach-size histograms. The acceptance bar for the
// observability work is < 3% overhead with metrics enabled.
func BenchmarkParallelLinkJoinObs(b *testing.B) {
	g, m1, m2 := benchLinkGraph(4000, 6, 300)
	for _, bc := range []struct {
		name string
		ctx  context.Context
	}{
		{"metrics=off", context.Background()},
		{"metrics=on", obs.WithRegistry(context.Background(), obs.NewRegistry())},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := connectedPairs(bc.ctx, g, m1, m2, 3, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParallelLinkJoinMatchesSerial pins that the parallel BFS fan-out
// is a pure optimization: the gL connectivity set at any P equals the
// serial one pair for pair.
func TestParallelLinkJoinMatchesSerial(t *testing.T) {
	g, m1, m2 := benchLinkGraph(400, 4, 60)
	ctx := context.Background()
	serial, err := connectedPairs(ctx, g, m1, m2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		par, err := connectedPairs(ctx, g, m1, m2, 3, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("p=%d: %d pairs, want %d", p, len(par), len(serial))
		}
		for pair := range par {
			if !serial[pair] {
				t.Fatalf("p=%d: pair %v not in the serial set", p, pair)
			}
		}
	}
}
