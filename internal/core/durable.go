package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semjoin/internal/bin"
	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
	"semjoin/internal/wal"
)

// WAL record type tags for the three IncExt update streams.
const (
	// RecGraphUpdate logs an ApplyGraphUpdate ΔG batch.
	RecGraphUpdate byte = 1
	// RecRelationUpdate logs an ApplyRelationUpdate ΔD relation swap.
	RecRelationUpdate byte = 2
	// RecKeywordUpdate logs an UpdateKeywords interest-set change.
	RecKeywordUpdate byte = 3
)

// EncodeGraphUpdate serialises a ΔG batch into a WAL record payload.
func EncodeGraphUpdate(delta graph.Batch) ([]byte, error) {
	var buf bytes.Buffer
	if err := delta.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeGraphUpdate parses a RecGraphUpdate payload.
func DecodeGraphUpdate(p []byte) (graph.Batch, error) {
	return graph.LoadBatch(bytes.NewReader(p))
}

// EncodeRelationUpdate serialises a ΔD replacement relation into a WAL
// record payload.
func EncodeRelationUpdate(d *rel.Relation) ([]byte, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil relation update")
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeRelationUpdate parses a RecRelationUpdate payload.
func DecodeRelationUpdate(p []byte) (*rel.Relation, error) {
	return rel.LoadRelation(bytes.NewReader(p))
}

// EncodeKeywordUpdate serialises a keyword set into a WAL record
// payload.
func EncodeKeywordUpdate(keywords []string) ([]byte, error) {
	var buf bytes.Buffer
	w := bin.NewWriter(&buf)
	w.Strings(keywords)
	if err := w.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeKeywordUpdate parses a RecKeywordUpdate payload.
func DecodeKeywordUpdate(p []byte) ([]string, error) {
	r := bin.NewReader(bytes.NewReader(p))
	kws := r.Strings()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return kws, nil
}

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Policy, SegmentBytes and BatchEvery pass through to the WAL.
	Policy       wal.SyncPolicy
	SegmentBytes int64
	BatchEvery   int
	// CheckpointEvery takes an automatic compacted snapshot after this
	// many logged updates (0 = checkpoint only on demand). Checkpoint
	// failures never fail the update that triggered them — the update
	// is already durable in the log — but are counted and retrievable
	// via LastCheckpointError.
	CheckpointEvery int
	// Strict passes through to the WAL: fail recovery on structural
	// corruption instead of truncating.
	Strict bool
	// Reg receives wal/snapshot metrics (nil-safe).
	Reg *obs.Registry
	// FS overrides the filesystem for both the WAL and snapshots.
	FS wal.FS
}

// DurableBoot supplies what a DurableStore cannot read from disk: the
// non-serialisable matcher and models, the extraction config, and —
// for a directory with no snapshot yet — the initial in-memory state
// to adopt.
type DurableBoot struct {
	// Base is adopted as the store's state when dir holds no snapshot.
	// Required for a fresh directory; ignored when a snapshot exists. The
	// store takes over Base.Extractor and the graph it extracts over as
	// its working state: from then on only the store may touch them.
	Base *BaseMaterialization
	// Graph, when set, must be the graph Base extracts over.
	Graph *graph.Graph
	// Models and Cfg rebuild extractors when loading a snapshot.
	Models Models
	Cfg    Config
	// Matcher drives HER during replay and future updates. Defaults to
	// Base.Spec.Matcher when nil.
	Matcher her.Matcher
}

// Version is one published state of a store: the graph and the base's
// (D, f(D,G), h(D,G)) as they were after the update logged at Seq, and
// nothing of any later one. It is immutable; the store publishes a new
// one after every update.
type Version struct {
	// Seq is the WAL sequence number of the last update the state
	// contains.
	Seq uint64
	// G is a graph.Snapshot of the store's graph.
	G *graph.Graph
	// Base carries D (Spec.D), h(D,G) (Extracted) and, for the joins,
	// f(D,G) with its tid index and the state's generation.
	Base *BaseMaterialization
}

// DurableStore is a BaseMaterialization with write-ahead-logged update
// streams and compacted snapshots: every ApplyGraphUpdate /
// ApplyRelationUpdate / UpdateKeywords is logged (and fsynced per
// policy) BEFORE it is applied in memory, so an acknowledged update
// survives a crash; recovery loads the latest snapshot and replays the
// log suffix through the same apply the live path uses. Each store is
// a self-contained durability domain: its snapshot includes its own
// copy of the graph, so recovery never depends on (or repairs) state
// shared with other bases.
//
// Readers never wait for a writer. Update streams, checkpoints and Close
// serialise on mu and work on the store's private state — the extractor
// and its graph; what anyone else reads is the Version behind cur, which
// a writer replaces, whole, after each update (DESIGN.md "Versions: who
// may write what").
type DurableStore struct {
	mu  sync.Mutex // writers only
	cur atomic.Pointer[Version]

	dir  string
	fs   wal.FS
	log  *wal.Log
	base *BaseMaterialization // the writer's side of the last published version
	g    *graph.Graph         // the working graph base.Extractor extracts over

	models  Models
	cfg     Config
	matcher her.Matcher
	opts    DurableOptions

	snapSeq         atomic.Uint64 // seq covered by the newest snapshot
	sinceCheckpoint int
	replaySkipped   int // replayed records whose apply failed (deterministic no-ops)
	checkpointErr   error

	snapSec    *obs.Histogram
	snapTotal  *obs.Counter
	replayed   *obs.Counter
	versionSeq *obs.Gauge
	publishSec *obs.Histogram
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".bin"
	snapTmp    = ".tmp"
)

func snapName(seq uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix) }

// OpenDurable opens (creating if needed) the durable store in dir.
// With a snapshot on disk, the snapshot state is loaded and the WAL
// suffix replayed — boot.Base is ignored. With a fresh directory, the
// store adopts boot.Base/boot.Graph and starts logging. When ctx
// carries an obs trace, recovery reports a span tree
// (durable_recover → snapshot_load / wal_open / wal_replay).
func OpenDurable(ctx context.Context, dir string, boot DurableBoot, opts DurableOptions) (*DurableStore, error) {
	fs := opts.FS
	if fs == nil {
		fs = wal.OSFS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("core: durable dir: %w", err)
	}
	s := &DurableStore{
		dir: dir, fs: fs,
		models: boot.Models, cfg: boot.Cfg, matcher: boot.Matcher, opts: opts,
		snapSec:   opts.Reg.Histogram("snapshot_seconds", nil),
		snapTotal: opts.Reg.Counter("durable_snapshots_total"),
		replayed:  opts.Reg.Counter("durable_replay_records_total"),
	}
	tr := obs.TraceFromContext(ctx)
	root := tr.StartSpan("durable_recover")
	defer root.End()

	// 1. Latest snapshot, if any.
	snapSpan := root.StartChild("snapshot_load")
	seq, err := s.loadLatestSnapshot()
	snapSpan.End()
	if err != nil {
		return nil, err
	}
	if s.base == nil {
		if boot.Base == nil || boot.Base.Extractor == nil {
			return nil, fmt.Errorf("core: durable dir %s has no snapshot and no boot state was supplied", dir)
		}
		if boot.Graph != nil && boot.Graph != boot.Base.Extractor.g {
			return nil, fmt.Errorf("core: durable boot: Graph is not the graph Base extracts over")
		}
		s.base = boot.Base
		s.g = boot.Base.Extractor.g
	}
	if s.matcher == nil {
		s.matcher = s.base.Spec.Matcher
	}
	if s.matcher == nil {
		return nil, fmt.Errorf("core: durable store needs a matcher (boot.Matcher or Base.Spec.Matcher)")
	}
	s.snapSeq.Store(seq)
	store := ""
	if d := s.base.Extractor.s; d != nil {
		store = d.Schema.Name
	}
	s.versionSeq = opts.Reg.Gauge("core_version_seq", "store", store)
	s.publishSec = opts.Reg.Histogram("core_version_publish_seconds", nil, "store", store)

	// 2. WAL recovery.
	walSpan := root.StartChild("wal_open")
	l, err := wal.Open(dir, wal.Options{
		Policy: opts.Policy, SegmentBytes: opts.SegmentBytes,
		BatchEvery: opts.BatchEvery, Strict: opts.Strict,
		Reg: opts.Reg, FS: fs,
	})
	walSpan.End()
	if err != nil {
		return nil, err
	}
	s.log = l

	// 3. Replay the suffix past the snapshot.
	replaySpan := root.StartChild("wal_replay")
	err = s.replay(ctx, seq)
	replaySpan.End()
	if err != nil {
		l.Close()
		return nil, err
	}
	// One version for the whole recovery: nobody could read the states
	// in between.
	s.publish(ctx, l.LastSeq())
	obs.LoggerFromContext(ctx).Info("durable store opened",
		"dir", dir, "snapshot_seq", seq, "wal_records", len(l.Records()),
		"replay_skipped", s.replaySkipped, "truncated", l.Info().Truncated)
	return s, nil
}

// loadLatestSnapshot restores the newest readable snapshot, returning
// the seq it covers (0 when none exists).
func (s *DurableStore) loadLatestSnapshot() (uint64, error) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("core: list durable dir: %w", err)
	}
	var snaps []string
	for _, n := range names {
		if strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapSuffix) {
			snaps = append(snaps, n)
		}
	}
	if len(snaps) == 0 {
		return 0, nil
	}
	sort.Strings(snaps) // hex names sort by seq
	name := snaps[len(snaps)-1]
	data, err := s.fs.ReadFile(s.dir + "/" + name)
	if err != nil {
		return 0, fmt.Errorf("core: read snapshot %s: %w", name, err)
	}
	// Verify the whole-file CRC trailer before decoding: a bit flip in
	// a string payload would otherwise decode "successfully" as
	// different data.
	if len(data) < 4 {
		return 0, fmt.Errorf("core: snapshot %s: too short for checksum", name)
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return 0, fmt.Errorf("core: snapshot %s: checksum mismatch (%08x != %08x)", name, got, want)
	}
	seq, err := s.decodeSnapshot(body)
	if err != nil {
		return 0, fmt.Errorf("core: snapshot %s: %w", name, err)
	}
	return seq, nil
}

// snapshotVersion is the layout encodeSnapshot writes and the only one
// decodeSnapshot reads. Version 1 carried a second match section
// (build-time f(D,G) beside the current one); no snapshot outlives the
// process that wrote it anywhere this repo runs, so it has no reader.
const snapshotVersion = 2

// ErrSnapshotVersion reports a snapshot in a layout this build does not
// read.
var ErrSnapshotVersion = errors.New("unsupported snapshot version")

// encodeSnapshot serialises the full store state: the covered seq, the
// graph (exact structural fidelity), the current reference relation D,
// the base materialisation (AR, current f(D,G), current h(D,G),
// scheme), and the refined pattern clusters (which UpdateKeywords
// re-ranks and which no other codec persists).
func (s *DurableStore) encodeSnapshot(buf *bytes.Buffer, seq uint64) error {
	ex := s.base.Extractor
	if ex == nil || ex.s == nil || ex.scheme == nil || ex.result == nil {
		return fmt.Errorf("core: snapshot requires a completed RExt run")
	}
	w := bin.NewWriter(buf)
	w.Header("snapshot", snapshotVersion)
	w.U64(seq)
	if err := w.Err(); err != nil {
		return err
	}
	if err := s.g.Save(buf); err != nil {
		return err
	}
	if err := ex.s.Save(buf); err != nil {
		return err
	}
	if err := SaveBase(buf, s.base); err != nil {
		return err
	}
	w.Int(ex.totalPaths)
	w.Int(len(ex.clusters))
	for _, sc := range ex.clusters {
		keys := make([]string, 0, len(sc.patterns))
		for k := range sc.patterns {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Int(len(keys))
		for _, k := range keys {
			w.String(k)
			w.Int(sc.patterns[k])
		}
		w.Int(len(sc.w))
		for _, we := range sc.w {
			w.I64(int64(we.vertex))
			w.Int(we.tupleIdx)
			w.String(we.endLabel)
		}
	}
	return w.Err()
}

// decodeSnapshot rebuilds store state from an encodeSnapshot image.
func (s *DurableStore) decodeSnapshot(data []byte) (uint64, error) {
	in := bytes.NewReader(data)
	r := bin.NewReader(in)
	if v := r.Header("snapshot"); r.Err() == nil && v != snapshotVersion {
		return 0, fmt.Errorf("%w %d", ErrSnapshotVersion, v)
	}
	seq := r.U64()
	if err := r.Err(); err != nil {
		return 0, err
	}
	g, err := graph.Load(in)
	if err != nil {
		return 0, fmt.Errorf("graph section: %w", err)
	}
	d, err := rel.LoadRelation(in)
	if err != nil {
		return 0, fmt.Errorf("relation section: %w", err)
	}
	base, err := LoadBase(in, d, g, s.models, s.matcher, s.cfg)
	if err != nil {
		return 0, fmt.Errorf("base section: %w", err)
	}
	ex := base.Extractor
	ex.totalPaths = r.Int()
	nc := r.Len()
	clusters := make([]*scoredCluster, 0, min(nc, 1<<20))
	for i := 0; i < nc && r.Err() == nil; i++ {
		sc := &scoredCluster{patterns: map[string]int{}}
		np := r.Len()
		for j := 0; j < np && r.Err() == nil; j++ {
			k := r.String()
			sc.patterns[k] = r.Int()
		}
		nw := r.Len()
		for j := 0; j < nw && r.Err() == nil; j++ {
			we := wEntry{
				vertex:   graph.VertexID(r.I64()),
				tupleIdx: r.Int(),
				endLabel: r.String(),
			}
			we.endVec = ex.valueVec(we.endLabel)
			sc.w = append(sc.w, we)
		}
		clusters = append(clusters, sc)
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	ex.clusters = clusters
	s.base = base
	s.g = g
	return seq, nil
}

// replay re-applies every WAL record past snapSeq to the in-memory
// state. A record whose apply fails is skipped: the live run returned
// that same (deterministic) error to its caller without changing
// state, so skipping reproduces the pre-crash state exactly.
func (s *DurableStore) replay(ctx context.Context, snapSeq uint64) error {
	expected := snapSeq + 1
	for _, rec := range s.log.Records() {
		if rec.Seq <= snapSeq {
			continue
		}
		if rec.Seq != expected {
			return fmt.Errorf("core: replay gap: snapshot covers seq %d but next log record is %d", snapSeq, rec.Seq)
		}
		expected++
		if _, err := s.apply(ctx, rec); err != nil {
			s.replaySkipped++
		}
		s.replayed.Inc()
	}
	return nil
}

// apply decodes one logged update and applies it to the store's working
// state. The live path calls it on the record it has just appended and
// replay on every record past the snapshot, so the two cannot drift.
// Nothing it changes is visible to a reader before publish. Decode
// failures are impossible for records the store wrote (CRC-verified) and
// surface like apply failures do.
func (s *DurableStore) apply(ctx context.Context, rec wal.Record) (IncStats, error) {
	ex := s.base.Extractor
	var st IncStats
	var err error
	switch rec.Type {
	case RecGraphUpdate:
		var delta graph.Batch
		if delta, err = DecodeGraphUpdate(rec.Payload); err == nil {
			st, err = ex.ApplyGraphUpdateContext(ctx, delta, s.matcher)
		}
	case RecRelationUpdate:
		var d *rel.Relation
		if d, err = DecodeRelationUpdate(rec.Payload); err == nil {
			st, err = ex.ApplyRelationUpdateContext(ctx, d, s.matcher)
		}
	case RecKeywordUpdate:
		var kws []string
		if kws, err = DecodeKeywordUpdate(rec.Payload); err == nil {
			_, err = ex.UpdateKeywordsContext(ctx, kws)
		}
	default:
		err = fmt.Errorf("core: unknown WAL record type %d", rec.Type)
	}
	return st, err
}

// publish makes the working state, which contains every update up to
// seq, the store's version: the one place cur is stored to, called
// directly after the extractor's commit point (Extractor.install) by the
// live path and once, after the last record, by recovery. The state the
// extractor installed is immutable and shared as it is; the graph is
// snapshotted, unless the update left it alone and the last version's
// snapshot still stands. Readers holding the previous version keep it.
func (s *DurableStore) publish(ctx context.Context, seq uint64) {
	start := time.Now()
	ex := s.base.Extractor
	g := s.g
	if prev := s.Version(); prev != nil && prev.G.Mutations() == g.Mutations() {
		g = prev.G
	} else {
		g = g.Snapshot()
	}
	s.base = &BaseMaterialization{
		Spec:      BaseSpec{D: ex.s, AR: s.base.Spec.AR, Matcher: s.matcher},
		Extractor: ex,
		Extracted: ex.result,
		state:     ex.baseState,
	}
	s.cur.Store(&Version{Seq: seq, G: g, Base: s.base})
	took := time.Since(start)
	s.versionSeq.Set(int64(seq))
	s.publishSec.Observe(took.Seconds())
	obs.TraceFromContext(ctx).Phase("incext_publish", start)
	obs.LoggerFromContext(ctx).Debug("version published", "dir", s.dir, "seq", seq,
		"publish_ms", float64(took)/float64(time.Millisecond))
}

// Version returns the store's current version: the one place cur is
// loaded. A query loads it once (Materialized.View) and reads nothing
// else of the store.
func (s *DurableStore) Version() *Version { return s.cur.Load() }

// logThenApply is the write path of every update stream: the encoded
// update is appended to the log (fsynced per policy), applied, and the
// resulting state published. A logging failure returns before any state
// changes; an apply failure leaves the record in the log, where replay
// reproduces the same deterministic no-op, and the state as it was. It
// returns what the step did and h(D,G) as the step left it.
func (s *DurableStore) logThenApply(ctx context.Context, typ byte, payload []byte, encErr error) (IncStats, *rel.Relation, error) {
	if encErr != nil {
		return IncStats{}, nil, encErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq, err := s.log.Append(typ, payload)
	if err != nil {
		return IncStats{}, nil, err
	}
	st, err := s.apply(ctx, wal.Record{Seq: seq, Type: typ, Payload: payload})
	s.publish(ctx, seq)
	s.afterUpdateLocked(ctx)
	return st, s.base.Extracted, err
}

// ApplyGraphUpdate logs then applies a ΔG batch.
func (s *DurableStore) ApplyGraphUpdate(delta graph.Batch) (IncStats, error) {
	return s.ApplyGraphUpdateContext(context.Background(), delta)
}

// ApplyGraphUpdateContext is ApplyGraphUpdate with tracing.
func (s *DurableStore) ApplyGraphUpdateContext(ctx context.Context, delta graph.Batch) (IncStats, error) {
	payload, err := EncodeGraphUpdate(delta)
	st, _, err := s.logThenApply(ctx, RecGraphUpdate, payload, err)
	return st, err
}

// ApplyRelationUpdate logs then applies a ΔD relation replacement.
func (s *DurableStore) ApplyRelationUpdate(d *rel.Relation) (IncStats, error) {
	return s.ApplyRelationUpdateContext(context.Background(), d)
}

// ApplyRelationUpdateContext is ApplyRelationUpdate with tracing.
func (s *DurableStore) ApplyRelationUpdateContext(ctx context.Context, d *rel.Relation) (IncStats, error) {
	payload, err := EncodeRelationUpdate(d)
	st, _, err := s.logThenApply(ctx, RecRelationUpdate, payload, err)
	return st, err
}

// UpdateKeywords logs then applies an interest-set change, returning
// the re-extracted h(D,G).
func (s *DurableStore) UpdateKeywords(keywords []string) (*rel.Relation, error) {
	return s.UpdateKeywordsContext(context.Background(), keywords)
}

// UpdateKeywordsContext is UpdateKeywords with tracing.
func (s *DurableStore) UpdateKeywordsContext(ctx context.Context, keywords []string) (*rel.Relation, error) {
	payload, err := EncodeKeywordUpdate(keywords)
	_, out, err := s.logThenApply(ctx, RecKeywordUpdate, payload, err)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// afterUpdateLocked handles auto-checkpointing. Held under s.mu, which
// keeps other writers out for the length of the snapshot write and no
// reader.
func (s *DurableStore) afterUpdateLocked(ctx context.Context) {
	s.sinceCheckpoint++
	if s.opts.CheckpointEvery <= 0 || s.sinceCheckpoint < s.opts.CheckpointEvery {
		return
	}
	if err := s.checkpointLocked(ctx); err != nil {
		// The triggering update is already durable in the WAL; a failed
		// snapshot only delays compaction.
		s.checkpointErr = err
		s.opts.Reg.Counter("durable_checkpoint_errors_total").Inc()
		obs.LoggerFromContext(ctx).Warn("auto-checkpoint failed", "dir", s.dir, "err", err.Error())
	}
}

// Checkpoint writes a compacted snapshot of the current state and
// truncates the log prefix it covers. Update streams wait for it;
// queries do not.
func (s *DurableStore) Checkpoint(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked(ctx)
}

func (s *DurableStore) checkpointLocked(ctx context.Context) error {
	start := time.Now()
	// Rotate first: after the snapshot lands, every segment before the
	// fresh one is covered and removable.
	if err := s.log.Rotate(); err != nil {
		return err
	}
	seq := s.log.LastSeq()
	var buf bytes.Buffer
	if err := s.encodeSnapshot(&buf, seq); err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	tmp := s.dir + "/" + snapName(seq) + snapTmp
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: create snapshot: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("core: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("core: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: close snapshot: %w", err)
	}
	if err := s.fs.Rename(tmp, s.dir+"/"+snapName(seq)); err != nil {
		return fmt.Errorf("core: publish snapshot: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("core: sync durable dir: %w", err)
	}
	// The snapshot is durable; compact the log and drop older snapshots.
	if err := s.log.TruncateBefore(seq + 1); err != nil {
		return err
	}
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, n := range names {
		oldSnap := strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapSuffix) && n < snapName(seq)
		staleTmp := strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapTmp)
		if oldSnap || staleTmp {
			if err := s.fs.Remove(s.dir + "/" + n); err != nil {
				return err
			}
		}
	}
	s.snapSeq.Store(seq)
	s.sinceCheckpoint = 0
	s.checkpointErr = nil
	elapsed := time.Since(start)
	s.snapSec.Observe(elapsed.Seconds())
	s.snapTotal.Inc()
	obs.TraceFromContext(ctx).Phase("durable_checkpoint", start)
	obs.LoggerFromContext(ctx).Info("checkpoint", "dir", s.dir, "seq", seq,
		"bytes", buf.Len(), "duration_ms", float64(elapsed)/float64(time.Millisecond))
	return nil
}

// Base returns the base as of the store's current version. The value is
// immutable: a later update publishes another.
func (s *DurableStore) Base() *BaseMaterialization { return s.Version().Base }

// Graph returns the graph as of the store's current version — a
// snapshot that no later update changes.
func (s *DurableStore) Graph() *graph.Graph { return s.Version().G }

// Dir returns the durable directory.
func (s *DurableStore) Dir() string { return s.dir }

// LastSeq returns the seq of the last logged update.
func (s *DurableStore) LastSeq() uint64 { return s.log.LastSeq() }

// SnapshotSeq returns the seq covered by the newest snapshot.
func (s *DurableStore) SnapshotSeq() uint64 { return s.snapSeq.Load() }

// WALInfo returns the recovery details from Open.
func (s *DurableStore) WALInfo() wal.RecoveryInfo { return s.log.Info() }

// ReplaySkipped returns how many replayed records were deterministic
// no-ops (their apply failed exactly as it did live).
func (s *DurableStore) ReplaySkipped() int { return s.replaySkipped }

// LastCheckpointError returns the most recent auto-checkpoint failure,
// nil once a checkpoint succeeds.
func (s *DurableStore) LastCheckpointError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointErr
}

// Close syncs and closes the log. The store takes no update after; its
// last version stays readable.
func (s *DurableStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// DurableSet is the catalog-level registry of open durable stores,
// keyed by base name. The gSQL OPEN/CHECKPOINT statements and the
// server's ingestion op resolve stores through it.
type DurableSet struct {
	mu     sync.RWMutex
	stores map[string]*DurableStore
}

// NewDurableSet returns an empty set.
func NewDurableSet() *DurableSet {
	return &DurableSet{stores: map[string]*DurableStore{}}
}

// Put registers a store under name, failing if one is already open.
func (ds *DurableSet) Put(name string, s *DurableStore) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if _, ok := ds.stores[name]; ok {
		return fmt.Errorf("core: durable store %q already open", name)
	}
	ds.stores[name] = s
	return nil
}

// Get returns the store for name, or nil.
func (ds *DurableSet) Get(name string) *DurableStore {
	if ds == nil {
		return nil
	}
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.stores[name]
}

// Names returns the open store names, sorted.
func (ds *DurableSet) Names() []string {
	if ds == nil {
		return nil
	}
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	out := make([]string, 0, len(ds.stores))
	for n := range ds.stores {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Checkpoint checkpoints one named store, or every open store when
// name is empty.
func (ds *DurableSet) Checkpoint(ctx context.Context, name string) error {
	if name != "" {
		st := ds.Get(name)
		if st == nil {
			return fmt.Errorf("core: no durable store %q", name)
		}
		return st.Checkpoint(ctx)
	}
	for _, n := range ds.Names() {
		if st := ds.Get(n); st != nil {
			if err := st.Checkpoint(ctx); err != nil {
				return fmt.Errorf("core: checkpoint %s: %w", n, err)
			}
		}
	}
	return nil
}

// Close closes every store, keeping the first error.
func (ds *DurableSet) Close() error {
	if ds == nil {
		return nil
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	var first error
	for n, st := range ds.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
		delete(ds.stores, n)
	}
	return first
}
