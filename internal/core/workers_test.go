package core

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"semjoin/internal/graph"
	"semjoin/internal/mat"
	"semjoin/internal/nn"
)

// goroutineSeq wraps Mρ and records the goroutines that start a walk
// with it: selectPaths starts one per vertex, inside parallelFor.
type goroutineSeq struct {
	nn.SequenceModel
	mu  sync.Mutex
	ids map[string]bool
}

func (s *goroutineSeq) Start() nn.State {
	buf := make([]byte, 64)
	id := strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1] // "goroutine <id> [running]:"
	s.mu.Lock()
	s.ids[id] = true
	s.mu.Unlock()
	return s.SequenceModel.Start()
}

// TestExtractionIndependentOfGOMAXPROCS pins extraction's one
// worker-count rule: RExt's per-vertex loops and k-means fan out over
// GOMAXPROCS workers, and neither h(D,G), the scheme nor IncExt's stats
// may depend on how many. The world has more than 2·walkGrain matched
// products, so at GOMAXPROCS 4 path selection really runs on two or more
// goroutines — which the test checks, as it checks that GOMAXPROCS 1
// runs it on the caller alone.
func TestExtractionIndependentOfGOMAXPROCS(t *testing.T) {
	type outcome struct {
		rows       []string
		scheme     *Scheme
		stats      IncStats
		goroutines int
	}
	run := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		w := incBenchWorld()
		if n := len(w.truth); n <= 2*walkGrain {
			t.Fatalf("%d matched products do not fill two walk grains of %d", n, walkGrain)
		}
		seq := &goroutineSeq{SequenceModel: w.models.Seq, ids: map[string]bool{}}
		w.models.Seq = seq
		ex := runExtractor(t, w, walkCfg)
		st, err := ex.ApplyGraphUpdate(graph.RandomMixedBatch(w.g, mat.NewRNG(7), 16), oracle(w))
		if err != nil {
			t.Fatal(err)
		}
		return outcome{relationKey(ex.Result()), ex.Scheme(), st, len(seq.ids)}
	}
	one, four := run(1), run(4)
	if four.stats.Candidates == 0 {
		t.Fatal("the ΔG reached no candidate: the IncExt step checks nothing")
	}
	if one.goroutines != 1 || four.goroutines < 2 {
		t.Fatalf("path selection ran on %d goroutine(s) at GOMAXPROCS 1 and %d at 4; want 1 and >= 2",
			one.goroutines, four.goroutines)
	}
	if !slices.Equal(one.rows, four.rows) {
		t.Error("h(D,G) differs between GOMAXPROCS 1 and 4")
	}
	if !reflect.DeepEqual(one.scheme, four.scheme) {
		t.Errorf("scheme differs between GOMAXPROCS 1 and 4: %v vs %v", one.scheme.Attrs(), four.scheme.Attrs())
	}
	if one.stats != four.stats {
		t.Errorf("IncStats differ between GOMAXPROCS 1 and 4: %+v vs %+v", one.stats, four.stats)
	}
}
