package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
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

// EncodeRelationUpdate serialises a ΔD replacement relation for the
// named base into a WAL record payload: the base name, then the
// relation.
func EncodeRelationUpdate(base string, d *rel.Relation) ([]byte, error) {
	if d == nil {
		return nil, fmt.Errorf("core: nil relation update")
	}
	var buf bytes.Buffer
	w := bin.NewWriter(&buf)
	w.String(base)
	if err := w.Err(); err != nil {
		return nil, err
	}
	if err := d.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeRelationUpdate parses a RecRelationUpdate payload.
func DecodeRelationUpdate(p []byte) (string, *rel.Relation, error) {
	in := bytes.NewReader(p)
	r := bin.NewReader(in)
	base := r.String()
	if err := r.Err(); err != nil {
		return "", nil, err
	}
	d, err := rel.LoadRelation(in)
	return base, d, err
}

// EncodeKeywordUpdate serialises the named base's new keyword set into a
// WAL record payload.
func EncodeKeywordUpdate(base string, keywords []string) ([]byte, error) {
	var buf bytes.Buffer
	w := bin.NewWriter(&buf)
	w.String(base)
	w.Strings(keywords)
	if err := w.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeKeywordUpdate parses a RecKeywordUpdate payload.
func DecodeKeywordUpdate(p []byte) (string, []string, error) {
	r := bin.NewReader(bytes.NewReader(p))
	base := r.String()
	kws := r.Strings()
	if err := r.Err(); err != nil {
		return "", nil, err
	}
	return base, kws, nil
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
	// Base, for core.OpenDurable, is the one base of the domain the store
	// keeps, named after its relation; Materialized.OpenDurable takes the
	// materialisation's bases instead and refuses a Base. It is adopted
	// as the store's state when dir holds no snapshot; with a snapshot it
	// only names the base set the snapshot must hold. The store takes over
	// Base.Extractor and the graph it extracts over as its working state:
	// from then on only the store may touch them.
	Base *BaseMaterialization
	// Graph, when set, must be the graph Base extracts over.
	Graph *graph.Graph
	// Models and Cfg rebuild extractors when loading a snapshot.
	Models Models
	Cfg    Config
	// Matcher drives HER during replay and future updates, for every base
	// of the domain. Defaults to each base's Spec.Matcher when nil; a
	// store recovered from a snapshot needs it.
	Matcher her.Matcher
}

// Version is one published state of a graph domain: the graph and, for
// every base over it, (D, f(D,G), h(D,G)) as they were after the update
// logged at Seq, and nothing of any later one. It is immutable; the store
// publishes a new one after every update.
type Version struct {
	// Seq is the WAL sequence number of the last update the state
	// contains.
	Seq uint64
	// G is a graph.Snapshot of the domain's graph.
	G *graph.Graph
	// Bases holds, by name, each base's D (Spec.D), h(D,G) (Extracted)
	// and, for the joins, f(D,G) with its tid index and the state's
	// generation.
	Bases map[string]*BaseMaterialization
}

// Base returns the named base as the version holds it, or nil.
func (v *Version) Base(name string) *BaseMaterialization {
	if v == nil {
		return nil
	}
	return v.Bases[name]
}

// DurableStore keeps one graph domain — a graph and every base extracted
// over it — with write-ahead-logged update streams and compacted
// snapshots: every ApplyGraphUpdate / ApplyRelationUpdate /
// UpdateKeywords is logged (and fsynced per policy) BEFORE it is applied
// in memory, so an acknowledged update survives a crash; recovery loads
// the latest snapshot and replays the log suffix through the same apply
// the live path uses. A ΔG is logged once, applied to the graph once and
// maintains every base; a ΔD or keyword record names the base it
// changes (DESIGN.md "One store per graph domain").
//
// Readers never wait for a writer. Update streams, checkpoints and Close
// serialise on mu and work on the store's private state — the extractors
// and their graph; what anyone else reads is the Version behind cur,
// which a writer replaces, whole, after each update (DESIGN.md "Versions:
// who may write what").
type DurableStore struct {
	mu     sync.Mutex // writers only
	cur    atomic.Pointer[Version]
	closed atomic.Bool // set by Close

	dir string
	fs  wal.FS
	log *wal.Log
	g   *graph.Graph // the working graph every base's extractor extracts over
	// names are the domain's bases, sorted: the order a ΔG maintains them
	// in. Fixed at open.
	names []string
	// bases are the writer's side of the last published version: a base's
	// extractor, and the Spec it publishes under.
	bases map[string]*BaseMaterialization

	models  Models
	cfg     Config
	matcher her.Matcher // boot.Matcher; nil leaves each base its own
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

// ErrDomainBases reports a snapshot whose bases are not the ones the
// caller opens the domain with.
var ErrDomainBases = errors.New("snapshot holds another set of bases")

// OpenDurable opens (creating if needed) the durable store in dir over a
// one-base domain: boot.Base, named after its relation. With a snapshot
// on disk, the snapshot state is loaded and the WAL suffix replayed; with
// no boot.Base that recovers whatever domain the snapshot holds. With a
// fresh directory, the store adopts boot.Base and its graph and starts
// logging. When ctx carries an obs trace, recovery reports a span tree
// (durable_recover → snapshot_load / wal_open / wal_replay).
func OpenDurable(ctx context.Context, dir string, boot DurableBoot, opts DurableOptions) (*DurableStore, error) {
	var bases map[string]*BaseMaterialization
	if b := boot.Base; b != nil {
		if b.Extractor == nil || b.Extractor.s == nil {
			return nil, fmt.Errorf("core: durable boot: Base has no extractor over a relation")
		}
		if boot.Graph != nil && boot.Graph != b.Extractor.g {
			return nil, fmt.Errorf("core: durable boot: Graph is not the graph Base extracts over")
		}
		bases = map[string]*BaseMaterialization{b.Extractor.s.Schema.Name: b}
	}
	return openDomain(ctx, dir, bases, boot, opts)
}

// openDomain opens the store of the domain bases form (all extracting
// over one graph); nil bases recover the snapshot's domain.
func openDomain(ctx context.Context, dir string, bases map[string]*BaseMaterialization, boot DurableBoot, opts DurableOptions) (*DurableStore, error) {
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
	switch {
	case s.bases != nil && bases != nil && !slices.Equal(s.names, sortedNames(bases)):
		return nil, fmt.Errorf("core: durable dir %s: %w: %v, opened with %v", dir, ErrDomainBases, s.names, sortedNames(bases))
	case s.bases == nil:
		if err := s.adopt(dir, bases); err != nil {
			return nil, err
		}
	}
	s.snapSeq.Store(seq)
	label := strings.Join(s.names, ",")
	s.versionSeq = opts.Reg.Gauge("core_version_seq", "store", label)
	s.publishSec = opts.Reg.Histogram("core_version_publish_seconds", nil, "store", label)

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
		"dir", dir, "bases", label, "snapshot_seq", seq, "wal_records", len(l.Records()),
		"replay_skipped", s.replaySkipped, "truncated", l.Info().Truncated)
	return s, nil
}

// adopt makes the boot bases, which have no snapshot yet, the store's
// working state.
func (s *DurableStore) adopt(dir string, bases map[string]*BaseMaterialization) error {
	if len(bases) == 0 {
		return fmt.Errorf("core: durable dir %s has no snapshot and no boot state was supplied", dir)
	}
	s.names = sortedNames(bases)
	s.bases = make(map[string]*BaseMaterialization, len(bases))
	for _, name := range s.names {
		b := bases[name]
		ex := b.Extractor
		if ex == nil || ex.s == nil || ex.scheme == nil || ex.result == nil {
			return fmt.Errorf("core: durable boot: base %s has no completed RExt run", name)
		}
		if s.g == nil {
			s.g = ex.g
		} else if ex.g != s.g {
			return fmt.Errorf("core: durable boot: base %s extracts over another graph than %s", name, s.names[0])
		}
		matcher := s.matcher
		if matcher == nil {
			matcher = b.Spec.Matcher
		}
		if matcher == nil {
			return fmt.Errorf("core: durable store needs a matcher (boot.Matcher or Base.Spec.Matcher)")
		}
		s.bases[name] = &BaseMaterialization{Spec: BaseSpec{AR: b.Spec.AR, Matcher: matcher}, Extractor: ex}
	}
	return nil
}

// sortedNames returns the keys of bases, sorted.
func sortedNames(bases map[string]*BaseMaterialization) []string {
	names := make([]string, 0, len(bases))
	for n := range bases {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
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
// (build-time f(D,G) beside the current one); version 2 held one base
// and its own copy of the graph. No snapshot outlives the process that
// wrote it anywhere this repo runs, so neither has a reader.
const snapshotVersion = 3

// ErrSnapshotVersion reports a snapshot in a layout this build does not
// read.
var ErrSnapshotVersion = errors.New("unsupported snapshot version")

// encodeSnapshot serialises the full domain state: the covered seq, the
// graph (exact structural fidelity), and per base, in name order, its
// name, the current reference relation D, the base materialisation (AR,
// current f(D,G), current h(D,G), scheme) and the refined pattern
// clusters (which UpdateKeywords re-ranks and which no other codec
// persists).
func (s *DurableStore) encodeSnapshot(buf *bytes.Buffer, seq uint64) error {
	w := bin.NewWriter(buf)
	w.Header("snapshot", snapshotVersion)
	w.U64(seq)
	if err := w.Err(); err != nil {
		return err
	}
	if err := s.g.Save(buf); err != nil {
		return err
	}
	w.Int(len(s.names))
	for _, name := range s.names {
		w.String(name)
		if err := w.Err(); err != nil {
			return err
		}
		if err := encodeBase(buf, w, s.bases[name]); err != nil {
			return err
		}
	}
	return w.Err()
}

// encodeBase writes one base section of a snapshot: D, the base
// materialisation and the refined pattern clusters.
func encodeBase(buf *bytes.Buffer, w *bin.Writer, b *BaseMaterialization) error {
	ex := b.Extractor
	if err := ex.s.Save(buf); err != nil {
		return err
	}
	if err := SaveBase(buf, b); err != nil {
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

// decodeSnapshot rebuilds the domain state from an encodeSnapshot image.
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
	if s.matcher == nil {
		return 0, fmt.Errorf("core: durable store recovering a snapshot needs boot.Matcher")
	}
	g, err := graph.Load(in)
	if err != nil {
		return 0, fmt.Errorf("graph section: %w", err)
	}
	n := r.Len()
	var names []string
	bases := map[string]*BaseMaterialization{}
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.String()
		if err := r.Err(); err != nil {
			break
		}
		b, err := s.decodeBase(in, r, g)
		if err != nil {
			return 0, fmt.Errorf("base %s: %w", name, err)
		}
		names = append(names, name)
		bases[name] = b
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	s.g, s.names, s.bases = g, names, bases
	return seq, nil
}

// decodeBase reads one base section of a snapshot over its graph g.
func (s *DurableStore) decodeBase(in *bytes.Reader, r *bin.Reader, g *graph.Graph) (*BaseMaterialization, error) {
	d, err := rel.LoadRelation(in)
	if err != nil {
		return nil, fmt.Errorf("relation section: %w", err)
	}
	base, err := LoadBase(in, d, g, s.models, s.matcher, s.cfg)
	if err != nil {
		return nil, fmt.Errorf("base section: %w", err)
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
		return nil, err
	}
	ex.clusters = clusters
	return &BaseMaterialization{Spec: BaseSpec{AR: base.Spec.AR, Matcher: s.matcher}, Extractor: ex}, nil
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

// apply decodes one logged update and applies it to the domain's working
// state. The live path calls it on the record it has just appended and
// replay on every record past the snapshot, so the two cannot drift.
// Nothing it changes is visible to a reader before publish. Decode
// failures are impossible for records the store wrote (CRC-verified) and
// surface like apply failures do.
func (s *DurableStore) apply(ctx context.Context, rec wal.Record) (IncStats, error) {
	switch rec.Type {
	case RecGraphUpdate:
		delta, err := DecodeGraphUpdate(rec.Payload)
		if err != nil {
			return IncStats{}, err
		}
		return s.applyGraph(ctx, delta), nil
	case RecRelationUpdate:
		name, d, err := DecodeRelationUpdate(rec.Payload)
		if err == nil {
			err = s.checkBase(name)
		}
		if err != nil {
			return IncStats{}, err
		}
		b := s.bases[name]
		return b.Extractor.ApplyRelationUpdateContext(ctx, d, b.Spec.Matcher)
	case RecKeywordUpdate:
		name, kws, err := DecodeKeywordUpdate(rec.Payload)
		if err == nil {
			err = s.checkBase(name)
		}
		if err != nil {
			return IncStats{}, err
		}
		_, err = s.bases[name].Extractor.UpdateKeywordsContext(ctx, kws)
		return IncStats{}, err
	}
	return IncStats{}, fmt.Errorf("core: unknown WAL record type %d", rec.Type)
}

// applyGraph applies ΔG to the domain's graph once, then runs IncExt for
// every base over it, in name order, on the vertices the batch touched.
// The bases' statistics add up; Touched counts the batch's vertices once.
func (s *DurableStore) applyGraph(ctx context.Context, delta graph.Batch) IncStats {
	start := time.Now()
	touched := delta.Apply(s.g)
	st := IncStats{Touched: len(touched)}
	for _, name := range s.names {
		b := s.bases[name]
		bs := b.Extractor.maintainGraphUpdate(ctx, start, delta, touched, b.Spec.Matcher)
		st.Candidates += bs.Candidates
		st.Reselected += bs.Reselected
		st.Affected += bs.Affected
		st.Removed += bs.Removed
		start = time.Now()
	}
	return st
}

// publish makes the working state, which contains every update up to
// seq, the store's version: the one place cur is stored to, called
// directly after the extractors' commit points (Extractor.install) by the
// live path and once, after the last record, by recovery. A state an
// extractor installed is immutable and shared as it is, and a base whose
// state the update left alone keeps its published value; the graph is
// snapshotted, unless the update left it alone and the last version's
// snapshot still stands. Readers holding the previous version keep it.
func (s *DurableStore) publish(ctx context.Context, seq uint64) {
	start := time.Now()
	prev := s.Version()
	g := s.g
	if prev != nil && prev.G.Mutations() == g.Mutations() {
		g = prev.G
	} else {
		g = g.Snapshot()
	}
	bases := make(map[string]*BaseMaterialization, len(s.names))
	for _, name := range s.names {
		b := s.bases[name]
		if ex := b.Extractor; b.state != ex.baseState {
			b = &BaseMaterialization{
				Spec:      BaseSpec{D: ex.s, AR: b.Spec.AR, Matcher: b.Spec.Matcher},
				Extractor: ex,
				Extracted: ex.result,
				state:     ex.baseState,
			}
			s.bases[name] = b
		}
		bases[name] = b
	}
	s.cur.Store(&Version{Seq: seq, G: g, Bases: bases})
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
// returns what the step did, with the seq the record was logged at —
// this writer's, whatever other writers append after it.
func (s *DurableStore) logThenApply(ctx context.Context, typ byte, payload []byte, encErr error) (IncStats, error) {
	if encErr != nil {
		return IncStats{}, encErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq, err := s.log.Append(typ, payload)
	if err != nil {
		return IncStats{}, err
	}
	st, err := s.apply(ctx, wal.Record{Seq: seq, Type: typ, Payload: payload})
	st.Seq = seq
	s.publish(ctx, seq)
	s.afterUpdateLocked(ctx)
	return st, err
}

// ApplyGraphUpdate logs then applies a ΔG batch to the domain's graph,
// maintaining every base over it.
func (s *DurableStore) ApplyGraphUpdate(delta graph.Batch) (IncStats, error) {
	return s.ApplyGraphUpdateContext(context.Background(), delta)
}

// ApplyGraphUpdateContext is ApplyGraphUpdate with tracing.
func (s *DurableStore) ApplyGraphUpdateContext(ctx context.Context, delta graph.Batch) (IncStats, error) {
	payload, err := EncodeGraphUpdate(delta)
	return s.logThenApply(ctx, RecGraphUpdate, payload, err)
}

// ApplyRelationUpdate logs then applies a ΔD relation replacement of the
// named base.
func (s *DurableStore) ApplyRelationUpdate(base string, d *rel.Relation) (IncStats, error) {
	return s.ApplyRelationUpdateContext(context.Background(), base, d)
}

// ApplyRelationUpdateContext is ApplyRelationUpdate with tracing.
func (s *DurableStore) ApplyRelationUpdateContext(ctx context.Context, base string, d *rel.Relation) (IncStats, error) {
	if err := s.checkBase(base); err != nil {
		return IncStats{}, err
	}
	payload, err := EncodeRelationUpdate(base, d)
	return s.logThenApply(ctx, RecRelationUpdate, payload, err)
}

// UpdateKeywords logs then applies an interest-set change of the named
// base; its re-extracted h(D,G) is in the version the step published.
func (s *DurableStore) UpdateKeywords(base string, keywords []string) (IncStats, error) {
	return s.UpdateKeywordsContext(context.Background(), base, keywords)
}

// UpdateKeywordsContext is UpdateKeywords with tracing.
func (s *DurableStore) UpdateKeywordsContext(ctx context.Context, base string, keywords []string) (IncStats, error) {
	if err := s.checkBase(base); err != nil {
		return IncStats{}, err
	}
	payload, err := EncodeKeywordUpdate(base, keywords)
	return s.logThenApply(ctx, RecKeywordUpdate, payload, err)
}

// checkBase refuses, before anything is logged, an update addressed to
// a base outside the domain.
func (s *DurableStore) checkBase(base string) error {
	if _, ok := slices.BinarySearch(s.names, base); !ok {
		return fmt.Errorf("core: base %q is not in the durable domain %v", base, s.names)
	}
	return nil
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

// Base returns the only base of a one-base domain as of the store's
// current version, nil in a domain of several (Version().Base(name)
// serves every domain). The value is immutable: a later update publishes
// another. cmd/semjoinbench, which may not be edited outside a benchmark
// PR, calls it; delete with the next benchmark PR.
func (s *DurableStore) Base() *BaseMaterialization {
	if len(s.names) != 1 {
		return nil
	}
	return s.Version().Base(s.names[0])
}

// Bases returns the names of the domain's bases, sorted.
func (s *DurableStore) Bases() []string { return slices.Clone(s.names) }

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
// last version stays readable. Closing a closed store does nothing.
func (s *DurableStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Swap(true) {
		return nil
	}
	return s.log.Close()
}

// DurableSet is the catalog's handle on the durable store of its
// materialisation (the gSQL OPEN statement, cmd/gsql -data-dir): at most
// one, the store of the one graph domain the catalog's bases form.
// CHECKPOINT and the server's ingestion op resolve the store through it.
// It records nothing of its own: the store is the Materialized's
// (Materialized.OpenDurable, Materialized.Durable). The zero value holds
// none.
type DurableSet struct{ m *Materialized }

// NewDurableSet returns the handle on m's store.
func NewDurableSet(m *Materialized) *DurableSet { return &DurableSet{m: m} }

// Get returns the open store when base is one of its bases, or nil.
func (ds *DurableSet) Get(base string) *DurableStore {
	st := ds.Store()
	if st == nil || st.checkBase(base) != nil {
		return nil
	}
	return st
}

// Store returns the open store, or nil.
func (ds *DurableSet) Store() *DurableStore {
	if ds == nil || ds.m == nil {
		return nil
	}
	return ds.m.Durable()
}

// Close closes the open store, if any (Materialized.CloseDurable).
func (ds *DurableSet) Close() error {
	if ds == nil || ds.m == nil {
		return nil
	}
	return ds.m.CloseDurable()
}
