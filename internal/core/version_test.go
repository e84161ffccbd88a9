package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semjoin/internal/graph"
	"semjoin/internal/mat"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
	"semjoin/internal/wal"
)

// TestDurableVersionsAreImmutable is what the store promises a reader
// in place of a read lock: Base() and Graph() before and after an update
// are different values, and the earlier ones stay, to the byte, what
// they were when they were published.
func TestDurableVersionsAreImmutable(t *testing.T) {
	ctx := context.Background()
	w1, b1 := durableWorld(t)
	st, err := OpenDurable(ctx, "db", durableBoot(w1, b1), DurableOptions{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	type held struct {
		ver       *Version
		graph     []byte
		extracted *rel.Relation
		d         *rel.Relation
		matches   *rel.Relation
	}
	hold := func() held {
		v := st.Version()
		if v.Base("product") != st.Base() || v.G != st.Graph() {
			t.Fatal("Base()/Graph() are not the current version's")
		}
		b := v.Base("product")
		return held{v, graphBytes(t, v.G), b.Extracted.Clone(), b.Spec.D.Clone(), b.MatchRelation().Clone()}
	}
	var history []held
	history = append(history, hold())
	if history[0].ver.Seq != 0 {
		t.Fatalf("fresh store publishes seq %d, want 0", history[0].ver.Seq)
	}
	for i := 0; i < 8; i++ { // graph, graph, relation, keyword steps, twice over
		prev := history[len(history)-1].ver
		if err := applyScriptStep(st, w1.products, i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		h := hold()
		if h.ver == prev || h.ver.Base("product") == prev.Base("product") || h.ver.Base("product").state == prev.Base("product").state {
			t.Fatalf("step %d published no new version", i)
		}
		if h.ver.Seq != uint64(i+1) {
			t.Fatalf("step %d published seq %d", i, h.ver.Seq)
		}
		if h.ver.Base("product").Extracted == prev.Base("product").Extracted {
			t.Fatalf("step %d: h(D,G) of the new version is the relation the old one holds", i)
		}
		// A graph step publishes a new snapshot; the others share the
		// last one, and D's relation (and its columnar image) outlives
		// every step that does not replace it.
		if graphStep := i%4 < 2; graphStep == (h.ver.G == prev.G) {
			t.Fatalf("step %d: graph snapshot renewed = %v, want %v", i, h.ver.G != prev.G, graphStep)
		}
		if relationStep := i%4 == 2; relationStep == (h.ver.Base("product").Spec.D == prev.Base("product").Spec.D) {
			t.Fatalf("step %d: D replaced = %v, want %v", i, h.ver.Base("product").Spec.D != prev.Base("product").Spec.D, relationStep)
		}
		history = append(history, h)
	}
	for i, h := range history {
		if !bytes.Equal(graphBytes(t, h.ver.G), h.graph) {
			t.Errorf("version %d: graph changed after it was published", i)
		}
		if !sameRelation(h.ver.Base("product").Extracted, h.extracted) || !sameRelation(h.ver.Base("product").Spec.D, h.d) ||
			!sameRelation(h.ver.Base("product").MatchRelation(), h.matches) {
			t.Errorf("version %d: base state changed after it was published", i)
		}
	}
}

// TestReplayPublishesOnce: recovery applies the whole log suffix to the
// working state and publishes a single version, at the last seq.
func TestReplayPublishesOnce(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewMemFS()
	w1, b1 := durableWorld(t)
	st, err := OpenDurable(ctx, "db", durableBoot(w1, b1), DurableOptions{Policy: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, st, w1.products, 0, 5)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	w2, b2 := durableWorld(t)
	reg := obs.NewRegistry()
	st2, err := OpenDurable(ctx, "db", durableBoot(w2, b2), DurableOptions{FS: fs, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Version().Seq; got != 5 {
		t.Fatalf("recovered version seq = %d, want 5", got)
	}
	if got := reg.Gauge("core_version_seq", "store", "product").Value(); got != 5 {
		t.Fatalf("core_version_seq = %d, want 5", got)
	}
	if n := reg.Histogram("core_version_publish_seconds", nil, "store", "product").Snapshot().Count; n != 1 {
		t.Fatalf("replaying 5 records published %d versions, want 1", n)
	}
}

// blockingFS is a MemFS whose snapshot files park in Sync until released.
type blockingFS struct {
	*wal.MemFS
	parked  chan struct{} // closed when a snapshot Sync has begun
	release chan struct{}
	once    sync.Once
}

type blockingFile struct {
	wal.File
	fs *blockingFS
}

func (f *blockingFS) Create(name string) (wal.File, error) {
	file, err := f.MemFS.Create(name)
	if err != nil || !strings.Contains(name, snapPrefix) {
		return file, err
	}
	return &blockingFile{file, f}, nil
}

func (f *blockingFile) Sync() error {
	f.fs.once.Do(func() { close(f.fs.parked) })
	<-f.fs.release
	return f.File.Sync()
}

// TestReadCompletesDuringParkedCheckpoint: a CHECKPOINT stuck in its
// snapshot's fsync holds the writer mutex for as long as the disk takes;
// a read still completes, because it takes no lock the checkpoint holds.
func TestReadCompletesDuringParkedCheckpoint(t *testing.T) {
	ctx := context.Background()
	fs := &blockingFS{MemFS: wal.NewMemFS(), parked: make(chan struct{}), release: make(chan struct{})}
	w, m := durableMaterialized(t)
	st, err := m.OpenDurable(ctx, "db", DurableBoot{Models: w.models, Cfg: Config{K: 3, H: 12, Seed: 3}},
		DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	applySteps(t, st, w.products, 0, 2)

	checkpointed := make(chan error, 1)
	go func() { checkpointed <- st.Checkpoint(ctx) }()
	<-fs.parked

	read := make(chan error, 1)
	go func() {
		v := m.View()
		if v.Seq() != 2 {
			read <- fmt.Errorf("view seq = %d, want 2", v.Seq())
			return
		}
		_, err := wholeLink(ctx, v)
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("read did not complete while the checkpoint was parked")
	}
	select {
	case err := <-checkpointed:
		t.Fatalf("checkpoint returned (%v) before its Sync was released", err)
	default:
	}
	close(fs.release)
	if err := <-checkpointed; err != nil {
		t.Fatal(err)
	}
}

// wholeLink is the long scan: the whole-relation self l-join of product
// over v, sorted on both keys.
func wholeLink(ctx context.Context, v *View) (*rel.Relation, error) {
	d := v.Base("product").Spec.D
	link := v.StaticLinkIter("product", rel.NewScan(d), "product", rel.NewRename(rel.NewScan(d), "product2"),
		3, 1, LinkCacheKey("product", "true", "product", "true", 3))
	return rel.Materialize(ctx, rel.NewSort(link, rel.SortKey{Attr: "product.pid"}, rel.SortKey{Attr: "product2.pid"}))
}

// baselineEnrich is the non-well-behaved e-join: HER and RExt online
// over v's graph.
func baselineEnrich(ctx context.Context, w *world, v *View) (*rel.Relation, error) {
	d := v.Base("product").Spec.D
	return rel.Materialize(ctx, BaselineEnrichIter(v.G, w.models, oracle(w), []string{"company"},
		Config{K: 3, H: 12, Seed: 3}, rel.NewScan(d)))
}

// TestReadsBesideSaturatingWriter is the stress the read lock used to
// answer by making one side wait: a long scan and a baseline e-join loop
// run against a writer that never pauses. Every read must succeed and be
// internally consistent — equal to the same read, repeated once the
// writer has stopped, on the view it was given, whose graph and state
// must by then still be what they were — and the writer must have got
// its batches in.
func TestReadsBesideSaturatingWriter(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	w, m := durableMaterialized(t)
	st, err := m.OpenDurable(ctx, "db", DurableBoot{Models: w.models, Cfg: Config{K: 3, H: 12, Seed: 3}},
		DurableOptions{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var batches atomic.Int64
	var writer, reading sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ctx.Err() == nil; i++ {
			if _, err := st.ApplyGraphUpdate(graph.RandomMixedBatch(st.Graph(), mat.NewRNG(uint64(7000+i)), 4)); err != nil {
				t.Error(err)
				return
			}
			batches.Add(1)
		}
	}()

	type result struct {
		view *View
		out  *rel.Relation
	}
	readers := []struct {
		name string
		read func(*View) (*rel.Relation, error)
	}{
		{"whole-relation l-join + sort", func(v *View) (*rel.Relation, error) { return wholeLink(context.Background(), v) }},
		{"baseline e-join", func(v *View) (*rel.Relation, error) { return baselineEnrich(context.Background(), w, v) }},
	}
	results := make([][]result, len(readers))
	deadline := time.Now().Add(2 * time.Second)
	for ri := range readers {
		ri := ri
		reading.Add(1)
		go func() {
			defer reading.Done()
			for time.Now().Before(deadline) {
				v := m.View()
				out, err := readers[ri].read(v)
				if err != nil {
					t.Errorf("%s at seq %d: %v", readers[ri].name, v.Seq(), err)
					return
				}
				results[ri] = append(results[ri], result{v, out})
			}
		}()
	}
	reading.Wait()
	stop()
	writer.Wait()

	if batches.Load() == 0 {
		t.Fatal("the writer applied no batch")
	}
	seqs := map[uint64]bool{}
	for ri, rs := range results {
		if len(rs) == 0 {
			t.Fatalf("%s: no read completed", readers[ri].name)
		}
		for _, r := range rs {
			seqs[r.view.Seq()] = true
			m.ClearGLCache()
			again, err := readers[ri].read(r.view)
			if err != nil {
				t.Fatalf("%s repeated at seq %d: %v", readers[ri].name, r.view.Seq(), err)
			}
			if !sameRelation(r.out, again) {
				t.Fatalf("%s at seq %d: %d rows beside the writer, %d rows on the same view afterwards",
					readers[ri].name, r.view.Seq(), r.out.Len(), again.Len())
			}
		}
	}
	t.Logf("%d batches, %d l-joins, %d baseline e-joins over %d distinct versions",
		batches.Load(), len(results[0]), len(results[1]), len(seqs))
}
