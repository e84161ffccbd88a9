package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"semjoin/internal/bin"
	"semjoin/internal/graph"
	"semjoin/internal/mat"
	"semjoin/internal/rel"
	"semjoin/internal/wal"
)

// durableWorld builds an isolated world plus its product base
// materialisation. Durable-store tests mutate the graph through the
// update streams, so the shared fixture must never be used here.
// buildWorld is fully deterministic, so two durableWorld calls yield
// byte-identical initial states — which is what makes crash/recovery
// equivalence checkable against a pristine control.
func durableWorld(t testing.TB) (*world, *BaseMaterialization) {
	t.Helper()
	w, m := durableMaterialized(t)
	return w, m.Base("product")
}

// durableMaterialized is durableWorld keeping the Materialized, for
// tests that read through views.
func durableMaterialized(t testing.TB) (*world, *Materialized) {
	t.Helper()
	w := buildWorld()
	m, err := BuildMaterialized(w.g, w.models, map[string]BaseSpec{
		"product": {D: w.products, AR: []string{"company", "country"}, Matcher: oracle(w)},
	}, Config{K: 3, H: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return w, m
}

func durableBoot(w *world, b *BaseMaterialization) DurableBoot {
	return DurableBoot{Base: b, Graph: w.g, Models: w.models, Cfg: Config{K: 3, H: 12, Seed: 3}}
}

// applier is the update-stream surface shared by DurableStore and the
// in-memory control run.
type applier interface {
	// Graph is the graph as the last update left it.
	Graph() *graph.Graph
	ApplyGraphUpdate(delta graph.Batch) (IncStats, error)
	ApplyRelationUpdate(base string, d *rel.Relation) (IncStats, error)
	UpdateKeywords(base string, keywords []string) (IncStats, error)
}

// memStore drives a plain BaseMaterialization's extractor through the
// same update surface: the control a durable store of the one base is
// compared with.
type memStore struct{ b *BaseMaterialization }

func (m *memStore) Graph() *graph.Graph { return m.b.Extractor.g }

func (m *memStore) ApplyGraphUpdate(delta graph.Batch) (IncStats, error) {
	return m.b.Extractor.ApplyGraphUpdate(delta, m.b.Spec.Matcher)
}

func (m *memStore) ApplyRelationUpdate(_ string, d *rel.Relation) (IncStats, error) {
	return m.b.Extractor.ApplyRelationUpdate(d, m.b.Spec.Matcher)
}

func (m *memStore) UpdateKeywords(_ string, keywords []string) (IncStats, error) {
	_, err := m.b.Extractor.UpdateKeywords(keywords)
	return IncStats{}, err
}

// applyScriptStep applies deterministic update step i to st. The same
// step index against an identical state yields an identical update
// (RandomMixedBatch is seeded per step), so the script can replay
// against controls and crash survivors alike.
func applyScriptStep(st applier, products *rel.Relation, i int) error {
	switch i % 4 {
	case 0, 1:
		_, err := st.ApplyGraphUpdate(graph.RandomMixedBatch(st.Graph(), mat.NewRNG(uint64(1000+i)), 4))
		return err
	case 2:
		d := products.Clone()
		d.InsertVals(rel.S(fmt.Sprintf("xx%02d", i)), rel.S(fmt.Sprintf("extra %02d", i)), rel.S("Funds"))
		_, err := st.ApplyRelationUpdate("product", d)
		return err
	default:
		kws := [][]string{{"company"}, {"company", "country"}}[(i/4)%2]
		_, err := st.UpdateKeywords("product", kws)
		return err
	}
}

func applySteps(t *testing.T, st applier, products *rel.Relation, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := applyScriptStep(st, products, i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func graphBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSameState checks every state surface recovery must preserve:
// graph structure (byte-exact, so future updates replay identically),
// the extracted relation, the current reference relation D, and the
// current HER match state. got is a store's materialisation, whose
// published Spec.D/Extracted must follow its extractor; want is judged
// by its extractor alone (a memStore control publishes nothing).
func assertSameState(t *testing.T, tag string, got, want *BaseMaterialization, gGot, gWant *graph.Graph) {
	t.Helper()
	if !bytes.Equal(graphBytes(t, gGot), graphBytes(t, gWant)) {
		t.Fatalf("%s: graphs diverge", tag)
	}
	if got.Extracted != got.Extractor.Result() || got.Spec.D != got.Extractor.s {
		t.Fatalf("%s: published Spec.D/Extracted are not the extractor's current state", tag)
	}
	if !sameRelation(got.Extracted, want.Extractor.Result()) {
		t.Fatalf("%s: extracted relations diverge", tag)
	}
	if !sameRelation(got.Spec.D, want.Extractor.s) {
		t.Fatalf("%s: reference relations diverge", tag)
	}
	if !sameRelation(got.Extractor.MatchRelation(), want.Extractor.MatchRelation()) {
		t.Fatalf("%s: match states diverge", tag)
	}
}

// TestDurableFreshOpenLogsAndReplays is the core log-then-apply
// round-trip: updates against a fresh store match an in-memory control,
// and a reopen with pristine boot state replays the log back to the
// exact same state.
func TestDurableFreshOpenLogsAndReplays(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewMemFS()
	w1, b1 := durableWorld(t)
	st, err := OpenDurable(ctx, "db", durableBoot(w1, b1), DurableOptions{Policy: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	applySteps(t, st, w1.products, 0, n)

	wc, bc := durableWorld(t)
	ctl := &memStore{b: bc}
	applySteps(t, ctl, wc.products, 0, n)
	assertSameState(t, "live vs control", st.Base(), bc, st.Graph(), wc.g)

	if got := st.LastSeq(); got != n {
		t.Fatalf("LastSeq = %d, want %d", got, n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	w2, b2 := durableWorld(t)
	st2, err := OpenDurable(ctx, "db", durableBoot(w2, b2), DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.ReplaySkipped() != 0 {
		t.Fatalf("replay skipped %d records", st2.ReplaySkipped())
	}
	if got := st2.LastSeq(); got != n {
		t.Fatalf("reopened LastSeq = %d, want %d", got, n)
	}
	assertSameState(t, "replayed vs control", st2.Base(), bc, st2.Graph(), wc.g)

	// The recovered store keeps working: one more step on both sides.
	applySteps(t, st2, w2.products, n, n+1)
	applySteps(t, ctl, wc.products, n, n+1)
	assertSameState(t, "post-recovery update", st2.Base(), bc, st2.Graph(), wc.g)
}

// dirNames lists base names in the store directory, filtered by suffix.
func dirNames(t *testing.T, fs wal.FS, dir, contains string) []string {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range names {
		if strings.Contains(n, contains) {
			out = append(out, n)
		}
	}
	return out
}

// TestDurableCheckpointCompactsAndReopens takes a mid-stream snapshot,
// verifies the log prefix is compacted away, then reopens WITHOUT any
// boot state: the snapshot plus the log suffix must reconstruct the
// full 10-step state.
func TestDurableCheckpointCompactsAndReopens(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewMemFS()
	w1, b1 := durableWorld(t)
	st, err := OpenDurable(ctx, "db", durableBoot(w1, b1), DurableOptions{Policy: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, st, w1.products, 0, 6)
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if got := st.SnapshotSeq(); got != 6 {
		t.Fatalf("SnapshotSeq = %d, want 6", got)
	}
	if snaps := dirNames(t, fs, "db", "snap-"); len(snaps) != 1 {
		t.Fatalf("snapshots on disk: %v", snaps)
	}
	if segs := dirNames(t, fs, "db", "wal-"); len(segs) != 1 {
		t.Fatalf("log not compacted, segments: %v", segs)
	}
	applySteps(t, st, w1.products, 6, 10)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from snapshot alone: no boot base, only models + matcher.
	st2, err := OpenDurable(ctx, "db",
		DurableBoot{Models: w1.models, Cfg: Config{K: 3, H: 12, Seed: 3}, Matcher: b1.Spec.Matcher},
		DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()

	wc, bc := durableWorld(t)
	ctl := &memStore{b: bc}
	applySteps(t, ctl, wc.products, 0, 10)
	assertSameState(t, "snapshot+suffix vs control", st2.Base(), bc, st2.Graph(), wc.g)

	// A second checkpoint supersedes the first snapshot.
	if err := st2.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	snaps := dirNames(t, fs, "db", "snap-")
	if len(snaps) != 1 {
		t.Fatalf("old snapshot not removed: %v", snaps)
	}
}

// TestDurableCrashLosesOnlyUnsyncedTail crashes a SyncBatch store via
// the MemFS durability model: everything past the group-commit
// watermark vanishes, and recovery lands exactly on the state of the
// synced prefix.
func TestDurableCrashLosesOnlyUnsyncedTail(t *testing.T) {
	ctx := context.Background()
	mem := wal.NewMemFS()
	w1, b1 := durableWorld(t)
	st, err := OpenDurable(ctx, "db", durableBoot(w1, b1),
		DurableOptions{Policy: wal.SyncBatch, BatchEvery: 3, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, st, w1.products, 0, 8) // commits at 3 and 6
	durable := st.log.SyncedSeq()
	if durable != 6 {
		t.Fatalf("SyncedSeq = %d, want 6", durable)
	}
	mem.Crash()

	w2, b2 := durableWorld(t)
	st2, err := OpenDurable(ctx, "db", durableBoot(w2, b2), DurableOptions{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.LastSeq(); got != durable {
		t.Fatalf("recovered through seq %d, SyncedSeq promised %d", got, durable)
	}
	wc, bc := durableWorld(t)
	ctl := &memStore{b: bc}
	applySteps(t, ctl, wc.products, 0, int(durable))
	assertSameState(t, "crash survivor vs synced-prefix control", st2.Base(), bc, st2.Graph(), wc.g)
}

// TestDurableCrashIntraRecordOffsets truncates the WAL image at
// sampled byte offsets — including mid-frame cuts — and checks that the
// recovered store state equals the control state after exactly the
// surviving record count. Expected states are captured incrementally
// from the live run, so every distinct survivor count is verified
// against the uninterrupted history.
func TestDurableCrashIntraRecordOffsets(t *testing.T) {
	ctx := context.Background()
	mem := wal.NewMemFS()
	w1, b1 := durableWorld(t)
	st, err := OpenDurable(ctx, "db", durableBoot(w1, b1), DurableOptions{Policy: wal.SyncAlways, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	type expect struct {
		graph     []byte
		extracted *rel.Relation
		d         *rel.Relation
	}
	exp := make([]expect, n+1)
	snap := func(k int) {
		exp[k] = expect{
			graph:     graphBytes(t, st.Graph()),
			extracted: st.Base().Extracted.Clone(),
			d:         st.Base().Spec.D.Clone(),
		}
	}
	snap(0)
	for i := 0; i < n; i++ {
		if err := applyScriptStep(st, w1.products, i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		snap(i + 1)
	}
	st.Close()
	segs := dirNames(t, mem, "db", "wal-")
	if len(segs) != 1 {
		t.Fatalf("expected one segment, got %v", segs)
	}
	data, err := mem.ReadFile("db/" + segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Sample cuts across the image plus the exact end: mid-frame and
	// boundary offsets both occur.
	cuts := []int{0, 1, len(data) / 5, len(data) / 3, len(data) / 2, 2 * len(data) / 3, len(data) - 1, len(data)}
	for _, cut := range cuts {
		recs, _, serr := wal.Scan(data[:cut], 1)
		if serr != nil {
			t.Fatalf("cut %d: scan of truncated valid log errored: %v", cut, serr)
		}
		k := len(recs)
		fs := wal.NewMemFS()
		fs.WriteFile("db/"+segs[0], data[:cut])
		w2, b2 := durableWorld(t)
		st2, err := OpenDurable(ctx, "db", durableBoot(w2, b2), DurableOptions{FS: fs})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := int(st2.LastSeq()); got != k {
			t.Fatalf("cut %d: recovered seq %d, scan says %d", cut, got, k)
		}
		if !bytes.Equal(graphBytes(t, st2.Graph()), exp[k].graph) {
			t.Fatalf("cut %d (%d records): graph diverges from step-%d state", cut, k, k)
		}
		if !sameRelation(st2.Base().Extracted, exp[k].extracted) {
			t.Fatalf("cut %d (%d records): extracted relation diverges", cut, k)
		}
		if !sameRelation(st2.Base().Spec.D, exp[k].d) {
			t.Fatalf("cut %d (%d records): reference relation diverges", cut, k)
		}
		st2.Close()
	}
}

// TestDurableKeywordUpdateAfterSnapshotReopen exercises the persisted
// cluster state: a keyword re-ranking AFTER recovering from a snapshot
// must match one on a store that never went through persistence.
func TestDurableKeywordUpdateAfterSnapshotReopen(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewMemFS()
	w1, b1 := durableWorld(t)
	st, err := OpenDurable(ctx, "db", durableBoot(w1, b1), DurableOptions{Policy: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, st, w1.products, 0, 2)
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := OpenDurable(ctx, "db",
		DurableBoot{Models: w1.models, Cfg: Config{K: 3, H: 12, Seed: 3}, Matcher: b1.Spec.Matcher},
		DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.UpdateKeywords("product", []string{"country"}); err != nil {
		t.Fatal(err)
	}

	wc, bc := durableWorld(t)
	ctl := &memStore{b: bc}
	applySteps(t, ctl, wc.products, 0, 2)
	if _, err := ctl.UpdateKeywords("product", []string{"country"}); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, "post-snapshot keyword update", st2.Base(), bc, st2.Graph(), wc.g)
}

// TestDurableAutoCheckpoint covers CheckpointEvery: snapshots land on
// the configured cadence without explicit Checkpoint calls.
func TestDurableAutoCheckpoint(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewMemFS()
	w1, b1 := durableWorld(t)
	st, err := OpenDurable(ctx, "db", durableBoot(w1, b1),
		DurableOptions{Policy: wal.SyncAlways, CheckpointEvery: 3, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	applySteps(t, st, w1.products, 0, 3)
	if got := st.SnapshotSeq(); got != 3 {
		t.Fatalf("after 3 updates SnapshotSeq = %d, want 3", got)
	}
	applySteps(t, st, w1.products, 3, 6)
	if got := st.SnapshotSeq(); got != 6 {
		t.Fatalf("after 6 updates SnapshotSeq = %d, want 6", got)
	}
	if snaps := dirNames(t, fs, "db", "snap-"); len(snaps) != 1 {
		t.Fatalf("snapshots on disk: %v", snaps)
	}
	if err := st.LastCheckpointError(); err != nil {
		t.Fatalf("LastCheckpointError = %v", err)
	}
}

// TestDurableReplayGapDetected deletes the snapshot under a compacted
// log: the remaining records start past seq 1, which recovery must
// refuse to replay onto pristine boot state.
func TestDurableReplayGapDetected(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewMemFS()
	w1, b1 := durableWorld(t)
	st, err := OpenDurable(ctx, "db", durableBoot(w1, b1), DurableOptions{Policy: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, st, w1.products, 0, 4)
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	applySteps(t, st, w1.products, 4, 6)
	st.Close()
	for _, n := range dirNames(t, fs, "db", "snap-") {
		if err := fs.Remove("db/" + n); err != nil {
			t.Fatal(err)
		}
	}
	w2, b2 := durableWorld(t)
	_, err = OpenDurable(ctx, "db", durableBoot(w2, b2), DurableOptions{FS: fs})
	if err == nil || !strings.Contains(err.Error(), "replay gap") {
		t.Fatalf("expected replay-gap error, got %v", err)
	}
}

// TestDurableCorruptSnapshotFailsOpen flips a byte inside the snapshot:
// recovery must surface the corruption rather than load garbage.
func TestDurableCorruptSnapshotFailsOpen(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewMemFS()
	w1, b1 := durableWorld(t)
	st, err := OpenDurable(ctx, "db", durableBoot(w1, b1), DurableOptions{Policy: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, st, w1.products, 0, 2)
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	st.Close()
	snaps := dirNames(t, fs, "db", "snap-")
	if len(snaps) != 1 {
		t.Fatalf("snapshots: %v", snaps)
	}
	data, err := fs.ReadFile("db/" + snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptByte("db/"+snaps[0], len(data)/2, 0x20); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(ctx, "db",
		DurableBoot{Models: w1.models, Cfg: Config{K: 3, H: 12, Seed: 3}, Matcher: b1.Spec.Matcher},
		DurableOptions{FS: fs}); err == nil {
		t.Fatal("OpenDurable accepted a corrupt snapshot")
	}
}

// TestDurableCheckpointRestoresMatchState shuts a store down right
// after a checkpoint, so the reopen is served by the snapshot alone:
// the single match section must bring back f(D,G) — drifted from the
// build-time matches by ΔG and ΔD steps — and the tid index derived
// from it exactly as they were.
func TestDurableCheckpointRestoresMatchState(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewMemFS()
	w1, b1 := durableWorld(t)
	built := b1.Extractor.MatchRelation()
	st, err := OpenDurable(ctx, "db", durableBoot(w1, b1), DurableOptions{Policy: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, st, w1.products, 0, 7)
	before := st.Base().Extractor
	if sameRelation(before.MatchRelation(), built) {
		t.Fatal("the script left f(D,G) at its build-time value; the test would prove nothing")
	}
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDurable(ctx, "db",
		DurableBoot{Models: w1.models, Cfg: Config{K: 3, H: 12, Seed: 3}, Matcher: b1.Spec.Matcher},
		DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.WALInfo().Records != 0 {
		t.Fatalf("reopen replayed %d records; the snapshot alone should serve it", st2.WALInfo().Records)
	}
	after := st2.Base().Extractor
	if !sameRelation(after.MatchRelation(), before.MatchRelation()) {
		t.Fatalf("match relation changed across checkpoint+reopen:\n%v\nvs\n%v", after.MatchRelation(), before.MatchRelation())
	}
	if !reflect.DeepEqual(after.tidMatch, before.tidMatch) {
		t.Fatalf("tid index changed across checkpoint+reopen:\n%v\nvs\n%v", after.tidMatch, before.tidMatch)
	}
	if !reflect.DeepEqual(after.vertexTuple, before.vertexTuple) {
		t.Fatalf("vertex index changed across checkpoint+reopen:\n%v\nvs\n%v", after.vertexTuple, before.vertexTuple)
	}
}

// TestDurableRejectsV1Snapshot: snapshots in the two-match-section
// layout (v1) and the one-base layout (v2) are refused by version, with
// an error callers can test for.
func TestDurableRejectsV1Snapshot(t *testing.T) {
	for _, version := range []int{1, 2} {
		var buf bytes.Buffer
		w := bin.NewWriter(&buf)
		w.Header("snapshot", version)
		w.U64(3)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
		buf.Write(crc[:])
		fs := wal.NewMemFS()
		if err := fs.MkdirAll("db"); err != nil {
			t.Fatal(err)
		}
		fs.WriteFile("db/"+snapName(3), buf.Bytes())

		w1, b1 := durableWorld(t)
		_, err := OpenDurable(context.Background(), "db", durableBoot(w1, b1), DurableOptions{FS: fs})
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("OpenDurable over a v%d snapshot: %v, want ErrSnapshotVersion", version, err)
		}
	}
}

// TestDurableFreshDirNeedsBoot: an empty directory with no boot state
// is unrecoverable and must error cleanly.
func TestDurableFreshDirNeedsBoot(t *testing.T) {
	_, err := OpenDurable(context.Background(), "db", DurableBoot{}, DurableOptions{FS: wal.NewMemFS()})
	if err == nil || !strings.Contains(err.Error(), "no snapshot") {
		t.Fatalf("expected boot-state error, got %v", err)
	}
}

// TestDurableOnRealFilesystem runs the round-trip against OSFS so the
// os.File snapshot/rename/fsync path is exercised too.
func TestDurableOnRealFilesystem(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir() + "/store"
	w1, b1 := durableWorld(t)
	st, err := OpenDurable(ctx, dir, durableBoot(w1, b1), DurableOptions{Policy: wal.SyncBatch, BatchEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	applySteps(t, st, w1.products, 0, 5)
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	applySteps(t, st, w1.products, 5, 8)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDurable(ctx, dir,
		DurableBoot{Models: w1.models, Cfg: Config{K: 3, H: 12, Seed: 3}, Matcher: b1.Spec.Matcher},
		DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	wc, bc := durableWorld(t)
	ctl := &memStore{b: bc}
	applySteps(t, ctl, wc.products, 0, 8)
	assertSameState(t, "osfs reopen vs control", st2.Base(), bc, st2.Graph(), wc.g)
}

// TestDurableSetLifecycle covers the catalog-level handle and the
// materialisation it reads the store from: one store, found by any base
// of its domain, refused a second time while open; after Close the
// handle and the materialisation agree there is none, views keep the
// last version, and the domain can be opened again.
func TestDurableSetLifecycle(t *testing.T) {
	ctx := context.Background()
	fs := wal.NewMemFS()
	opts := DurableOptions{Policy: wal.SyncAlways, FS: fs}
	w, m := durableMaterialized(t)
	boot := DurableBoot{Models: w.models, Cfg: Config{K: 3, H: 12, Seed: 3}, Matcher: oracle(w)}
	ds := NewDurableSet(m)
	if ds.Store() != nil {
		t.Fatal("a store before OPEN")
	}
	st, err := m.OpenDurable(ctx, "db", boot, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenDurable(ctx, "db2", boot, opts); err == nil || !strings.Contains(err.Error(), "db") {
		t.Fatalf("second open: %v, want a refusal naming the open dir", err)
	}
	if ds.Get("product") != st || ds.Get("nope") != nil || ds.Store() != st || m.Durable() != st {
		t.Fatal("Get misrouted")
	}
	applySteps(t, st, w.products, 0, 3)
	if err := st.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	want := m.View().Seq()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if ds.Get("product") != nil || ds.Store() != nil || m.Durable() != nil {
		t.Fatal("Close left the store open")
	}
	if got := m.View().Seq(); got != want {
		t.Fatalf("view after Close at seq %d, want the last version's %d", got, want)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	st2, err := m.OpenDurable(ctx, "db", boot, opts)
	if err != nil {
		t.Fatalf("re-open after Close: %v", err)
	}
	defer st2.Close()
	if ds.Store() != st2 || m.View().Seq() != want || st2.SnapshotSeq() != want {
		t.Fatalf("re-opened store at seq %d (snapshot %d), want %d", m.View().Seq(), st2.SnapshotSeq(), want)
	}
	// Nil-receiver safety for the query path.
	var nilSet *DurableSet
	if nilSet.Get("x") != nil || nilSet.Store() != nil || nilSet.Close() != nil {
		t.Fatal("nil DurableSet misbehaved")
	}
	if (&DurableSet{}).Store() != nil {
		t.Fatal("zero DurableSet holds a store")
	}
}
