package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"semjoin/internal/core"
	"semjoin/internal/graph"
	"semjoin/internal/gsql"
	"semjoin/internal/her"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
	"semjoin/internal/wal"
)

// Sample sizes of the traced replay. Reads are cheap, so many are
// sampled; each write is replayed four more times on scratch copies, so
// few are. Both are also bounded by a share of the run's seconds.
const (
	traceReads  = 300
	traceWrites = 12
)

// scratch is the private state write replays run on: copies of the
// store's graph and extractor that see exactly the batches the live
// store sees, so each layer's public function can be timed on its own
// without touching what the server serves.
type scratch struct {
	store *core.DurableStore // DurableStore.ApplyGraphUpdate, same FS kind and policy
	// mat is a materialisation of the same base with a gL cache of its
	// own. Read replays run over it, so that they neither warm the cache
	// the server under test answers from nor are warmed by it.
	mat      *core.Materialized
	ext      *core.Extractor // mat's; Extractor.ApplyGraphUpdate
	g        *graph.Graph    // Batch.Apply
	log      *wal.Log        // Log.Append / Sync
	matcher  her.Matcher
	rextSecs float64 // what a fresh RExt over the same base cost
}

// newScratch materialises the base twice more over graph clones. It is
// harness work and stays out of setup_s.
func newScratch(w *world) (*scratch, error) {
	f := w.fix
	spec := core.BaseSpec{D: f.Cat.Relations[mainRel], AR: f.C.Recoverable[mainRel], Matcher: f.Cat.Matcher}
	build := func() (*core.Materialized, *graph.Graph, error) {
		g := f.C.G.Clone()
		m, err := core.BuildMaterialized(g, f.Cat.Models, map[string]core.BaseSpec{mainRel: spec}, f.rextConfig())
		return m, g, err
	}
	s := &scratch{matcher: spec.Matcher, g: f.C.G.Clone()}
	t := time.Now()
	m1, _, err := build()
	if err != nil {
		return nil, err
	}
	s.rextSecs = time.Since(t).Seconds()
	s.mat, s.ext = m1, m1.Base(mainRel).Extractor

	m2, g2, err := build()
	if err != nil {
		return nil, err
	}
	if s.store, err = core.OpenDurable(context.Background(), w.dir+"-scratch",
		core.DurableBoot{Base: m2.Base(mainRel), Graph: g2, Models: f.Cat.Models, Cfg: f.rextConfig(), Matcher: f.Cat.Matcher},
		core.DurableOptions{Policy: walPolicy, FS: w.fs}); err != nil {
		return nil, err
	}
	if s.log, err = wal.Open(w.dir+"-scratchlog", wal.Options{Policy: walPolicy, FS: w.fs}); err != nil {
		s.store.Close()
		return nil, err
	}
	return s, nil
}

// close is idempotent: the logs tolerate a second Close.
func (s *scratch) close() {
	s.store.Close()
	s.log.Close()
}

// tracedRun carries the traced replay's state.
type tracedRun struct {
	w      *world
	tr     *trace
	eng    *gsql.Engine // in-process replays: the catalog over the scratch materialisation, default parallelism, like a session's
	sc     *scratch
	req    int // requests replayed so far; the next one's id
	writes int // of which writes

	wireReadUS []float64 // wire latency of the replayed reads
	// durableSelfUS is, per replayed write, DurableStore.ApplyGraphUpdate
	// minus the encode, append and IncExt replays. Those ran on other
	// copies, so the difference carries their noise and may be negative.
	durableSelfUS []float64
	affected      int // IncStats.Affected summed over the replayed writes
	updates       int
	scanRows      int64 // rows out of scan operators over the replayed reads
	resultRows    int64
}

// glTraffic reads a registry's gL hit and miss counters.
func glTraffic(reg *obs.Registry) (hits, misses int64) {
	return reg.Counter("core_gl_hits_total").Value(), reg.Counter("core_gl_misses_total").Value()
}

// replayRead sends one read over the wire, then runs it again in
// process and records the engine's own account of where the time went.
// The replay is made to meet the gL cache the way the wire request did
// (nothing else is running, so the server's counters tell): a request
// that missed is replayed against an emptied scratch cache, one that hit
// is replayed again if the scratch cache missed. Otherwise a BFS the
// server ran would be missing from the replay and be booked as the
// server layer's own time.
func (t *tracedRun) replayRead(c *client, r request) error {
	t.req++
	hits0, misses0 := glTraffic(t.w.reg)
	start := time.Now()
	resp, _, err := c.do(r.Wire)
	wire := time.Since(start)
	if err != nil || !resp.OK {
		return fmt.Errorf("traced read %q: %v %s", r.Text, err, resp.Error)
	}
	hits1, misses1 := glTraffic(t.w.reg)
	wireHit, wireMiss := hits1 > hits0, misses1 > misses0
	t.wireReadUS = append(t.wireReadUS, us(wire))
	root := t.tr.root(t.req, "read:"+r.Family, "server", start, wire)

	if wireMiss {
		t.sc.mat.ClearGLCache()
	}
	var out *rel.Relation
	var took time.Duration
	for attempt := 0; attempt < 2; attempt++ {
		_, missed := glTraffic(t.eng.Obs)
		start = time.Now()
		if out, err = t.eng.Query(r.Text); err != nil {
			return fmt.Errorf("traced replay %q: %w", r.Text, err)
		}
		took = time.Since(start)
		if _, now := glTraffic(t.eng.Obs); !wireHit || wireMiss || now == missed {
			break
		}
	}
	query := t.tr.child(root, "gsql.query", "gsql", took)
	t.resultRows += int64(out.Len())
	for _, phase := range t.eng.LastTrace.Children {
		ps := t.tr.child(query, "gsql."+phase.Name, "gsql", phase.Duration)
		if phase.Name != "execute" || t.eng.LastStats == nil {
			continue
		}
		// Operators come in depth-first pre-order, so the operator at
		// depth d is a child of the last one at depth d-1.
		lines := t.eng.LastStats.Lines
		elapsed := inclusiveElapsed(lines)
		at := []*span{ps}
		for i, line := range lines {
			if line.Depth+1 > len(at) {
				continue // malformed tree; keep what nests
			}
			op := t.tr.child(at[line.Depth], "op:"+line.Label, opLayer(line.Label), elapsed[i])
			at = append(at[:line.Depth+1], op)
			if strings.HasPrefix(line.Label, "scan") {
				t.scanRows += line.Rows
			}
		}
	}
	return nil
}

// inclusiveElapsed returns each operator's time including its subtree.
// OpStats.Elapsed is documented as inclusive, but the batch/unbatch
// shims report zero; an operator cannot have taken less than the
// operators below it, so take the larger of the two.
func inclusiveElapsed(lines []rel.PlanLine) []time.Duration {
	out := make([]time.Duration, len(lines))
	for i := len(lines) - 1; i >= 0; i-- {
		var below time.Duration
		for j := i + 1; j < len(lines) && lines[j].Depth > lines[i].Depth; j++ {
			if lines[j].Depth == lines[i].Depth+1 {
				below += out[j]
			}
		}
		out[i] = max(lines[i].Elapsed, below)
	}
	return out
}

// replayWrite sends one batch over the wire, then applies the same
// batch through each layer of the write path on the scratch copies.
func (t *tracedRun) replayWrite(c *client, r request) error {
	t.req++
	start := time.Now()
	resp, _, err := c.do(r.Wire)
	wire := time.Since(start)
	if err != nil || !resp.OK {
		return fmt.Errorf("traced ingest: %v %s", err, resp.Error)
	}
	root := t.tr.root(t.req, "write:"+r.Family, "server", start, wire)

	start = time.Now()
	if _, err := t.sc.store.ApplyGraphUpdate(copyBatch(r.Batch)); err != nil {
		return fmt.Errorf("scratch store: %w", err)
	}
	whole := time.Since(start)
	durable := t.tr.child(root, "core.durable_apply", "core", whole)

	start = time.Now()
	payload, err := core.EncodeGraphUpdate(r.Batch)
	if err != nil {
		return err
	}
	encode := time.Since(start)
	t.tr.child(durable, "core.encode", "core", encode)

	start = time.Now()
	if _, err := t.sc.log.Append(core.RecGraphUpdate, payload); err != nil {
		return err
	}
	appendLog := time.Since(start)
	t.tr.child(durable, "wal.append", "wal", appendLog)

	start = time.Now()
	st, err := t.sc.ext.ApplyGraphUpdate(copyBatch(r.Batch), t.sc.matcher)
	if err != nil {
		return fmt.Errorf("scratch extractor: %w", err)
	}
	incext := time.Since(start)
	incextSpan := t.tr.child(durable, "core.incext", "core", incext)
	t.affected += st.Affected
	t.updates += len(r.Batch)
	t.durableSelfUS = append(t.durableSelfUS, us(whole-encode-appendLog-incext))

	start = time.Now()
	copyBatch(r.Batch).Apply(t.sc.g)
	t.tr.child(incextSpan, "graph.apply", "graph", time.Since(start))
	return nil
}

// spanStats gathers, per span name, the measured durations and the self
// times of the trace (microseconds); root spans pool under "read:" and
// "write:".
func spanStats(spans []*span) (dur, self map[string][]float64) {
	dur, self = map[string][]float64{}, map[string][]float64{}
	st := selfTimes(spans)
	for _, s := range spans {
		name := s.Name
		if s.Parent == 0 { // "read:<family>" and "write:<family>" pool by kind
			name = name[:strings.IndexByte(name, ':')+1]
		}
		dur[name] = append(dur[name], s.MeasuredUS)
		self[name] = append(self[name], st[s.ID])
	}
	return dur, self
}

// quietReadsOf sends the read mix from one session with nothing else
// running, up to traceReads requests or the budget, and returns the
// latencies (ms, in send order) with the requests sent: the base that
// reader stall and trace overhead are measured against.
func quietReadsOf(c *client, g generator, budget time.Duration) ([]float64, []request, error) {
	var lat []float64
	var sent []request
	for end := time.Now().Add(budget); len(lat) < traceReads && time.Now().Before(end); {
		r := g.next()
		t := time.Now()
		resp, _, err := c.do(r.Wire)
		if err != nil || !resp.OK {
			return nil, nil, fmt.Errorf("quiet pass %q: %v %s", r.Text, err, resp.Error)
		}
		lat = append(lat, ms(time.Since(t)))
		sent = append(sent, r)
	}
	return lat, sent, nil
}

// replayReads traces the given requests, as many as fit the budget.
func (t *tracedRun) replayReads(c *client, sample []request, budget time.Duration) error {
	end := time.Now().Add(budget)
	for _, r := range sample {
		if !time.Now().Before(end) {
			break
		}
		if err := t.replayRead(c, r); err != nil {
			return err
		}
	}
	return nil
}

// replayWrites traces up to traceWrites batches of g within the budget.
func (t *tracedRun) replayWrites(c *client, g generator, budget time.Duration) error {
	for end := time.Now().Add(budget); t.writes < traceWrites && time.Now().Before(end); t.writes++ {
		if err := t.replayWrite(c, g.next()); err != nil {
			return err
		}
	}
	return nil
}

// runTraced produces the per-layer metrics of one workload: a quiet
// pass, the traced replay of the same requests, an untraced window of
// half the seconds for the counters and the load generator's view, the
// probes and the restart drill.
func runTraced(spec workloadSpec, opt options, tracePath string) (*runResult, error) {
	res := &runResult{Workload: spec.Name, Seed: opt.Seed, Traced: true, Metrics: map[string]measurement{}}
	for _, d := range perLayer {
		res.set(d.Name, 0, 0) // every per-layer metric is reported, measured or not applicable
	}
	w, err := setUp(spec, opt)
	if err != nil {
		return nil, err
	}
	defer w.close()
	f1, err := w.fix.extractF1()
	if err != nil {
		return nil, err
	}
	sc, err := newScratch(w)
	if err != nil {
		return nil, err
	}
	defer sc.close() // closed earlier on the success path, before goroutines are counted
	budget := time.Duration(opt.Seconds / 4 * float64(time.Second))
	writer, reader := w.clients[0], w.clients[len(w.clients)-1]

	calib, err := w.readGen(int64(opt.Seed)*31 + 17)
	if err != nil {
		return nil, err
	}
	probeHER(res, w.fix)     // before any ingest changes the graph it matches against
	probeProfile(res, w.fix) // likewise

	// The same requests twice, each time from an empty gL cache: sent
	// quietly, then traced. The replays run over the scratch
	// materialisation and leave the server's cache alone, so both passes
	// meet the same hits and misses and differ by the tracing only.
	w.fix.Cat.Mat.ClearGLCache()
	quiet, sample, err := quietReadsOf(reader, calib, budget)
	if err != nil {
		return nil, err
	}
	cat := *w.fix.Cat
	cat.Mat, cat.Durable = sc.mat, nil
	eng := gsql.NewEngine(&cat)
	eng.Obs = obs.NewRegistry()
	eng.Tracer, eng.Traces, eng.Queries = obs.NewTracer(0, 0), obs.NewTraceStore(16), obs.NewQueryLog()
	run := &tracedRun{w: w, tr: newTrace(), eng: eng, sc: sc}
	w.fix.Cat.Mat.ClearGLCache()
	if err := run.replayReads(reader, sample, 2*budget); err != nil {
		return nil, err
	}
	if spec.Writer {
		if err := run.replayWrites(writer, w.ingest, budget); err != nil {
			return nil, err
		}
	}

	before := w.reg.CounterValues()
	fsyncs := w.reg.Histogram("wal_fsync_seconds", nil).Snapshot().Count
	win := w.runWindow(opt.Seconds / 2)
	after := w.reg.CounterValues()
	fsyncs = w.reg.Histogram("wal_fsync_seconds", nil).Snapshot().Count - fsyncs
	counted := func(series string) float64 { return float64(after[series] - before[series]) }

	if !spec.Writer {
		if err := w.checkReads(win); err != nil {
			return nil, err
		}
		w.runTail(win)
		// A read-only workload replays a few probe writes for the
		// write-side metrics, and only now, for the tail's reason.
		if err := run.replayWrites(writer, w.ingest, budget); err != nil {
			return nil, err
		}
		res.note("traced run: %d probe ingest batches applied after the window, for the write-side per-layer metrics", run.writes)
	}

	// Probes, while the server is still up.
	if err := probeServer(res, w); err != nil {
		return nil, err
	}
	if err := probeObs(res, &cat, sample[:min(len(sample), 100)]); err != nil {
		return nil, err
	}
	if err := probeRel(res, opt.Scale, int64(opt.Seed)); err != nil {
		return nil, err
	}
	if err := probeCoreRead(res, w.fix); err != nil {
		return nil, err
	}
	t := time.Now()
	if err := sc.log.Sync(); err != nil {
		return nil, err
	}
	res.set("wal.sync_ms", ms(time.Since(t)), 1)

	rec, err := w.recoverStore(win.MaxSeq, true)
	if err != nil {
		return nil, err
	}
	sc.close()
	leaked := w.leakedGoroutines()

	run.report(res, win, rec, quiet, counted)
	res.set("core.extract_f1", f1, len(w.in.Keys))
	res.set("wal.fsyncs", float64(fsyncs), len(win.IngestMS))
	res.set("proc.goroutines_leaked", float64(leaked), 1)
	if leaked > 0 {
		res.note("%d goroutines still running after shutdown", leaked)
	}
	if tracePath != "" {
		if err := run.tr.write(tracePath); err != nil {
			return nil, err
		}
	}
	judge(res, win, rec, f1)
	return res, nil
}

// report turns the replay's spans, the window and the restart drill
// into the per-layer metrics. quiet holds the quiet pass's read
// latencies (ms, in send order); counted reads a registry counter's
// increase over the window.
func (t *tracedRun) report(res *runResult, win *windowResult, rec *recoveryResult, quiet []float64, counted func(string) float64) {
	attempted := max(win.attempted(), 1)
	reads, ingests := len(win.ReadMS), len(win.IngestMS)
	if !t.w.spec.Writer {
		ingests = 0 // the tail's batches had no reader beside them
	}
	res.set("client.read_p99_ms", percentile(win.ReadMS, 0.99), reads)
	res.set("client.read_max_ms", percentile(win.ReadMS, 1), reads)
	res.set("client.fail_ratio", float64(win.failed())/float64(attempted), attempted)
	res.set("client.lost_acks", float64(rec.LostAcks), ingests)

	res.set("server.resp_bytes_per_req", float64(win.RespBytes)/float64(max(win.WindowRequests, 1)), win.WindowRequests)
	res.set("server.shed_total", counted("server_shed_total"), attempted)
	res.set("server.queued_total", counted("server_queued_total"), attempted)

	dur, self := spanStats(t.tr.spans)
	setMedian := func(metric string, xs []float64, scale float64) { res.set(metric, median(xs)*scale, len(xs)) }
	setMedian("server.wire_self_us", append(append([]float64(nil), self["read:"]...), self["write:"]...), 1)
	setMedian("gsql.parse_us", dur["gsql.parse"], 1)
	setMedian("gsql.plan_us", dur["gsql.plan"], 1)
	setMedian("gsql.execute_us", dur["gsql.execute"], 1)
	if t.resultRows > 0 {
		res.set("gsql.rows_in_per_row_out", float64(t.scanRows)/float64(t.resultRows), len(t.wireReadUS))
	}
	setMedian("core.encode_us", dur["core.encode"], 1)
	setMedian("core.incext_apply_ms", dur["core.incext"], 1e-3)
	setMedian("core.durable_self_us", t.durableSelfUS, 1)
	setMedian("wal.append_us", dur["wal.append"], 1)
	if t.updates > 0 {
		var applyUS float64
		for _, d := range dur["graph.apply"] {
			applyUS += d
		}
		res.set("core.incext_reextracted_per_update", float64(t.affected)/float64(t.updates), t.updates)
		res.set("graph.apply_us_per_update", applyUS/float64(t.updates), t.updates)
	}
	if incext := median(dur["core.incext"]); incext > 0 {
		res.set("core.incext_vs_rext_ratio", t.sc.rextSecs*1e6/incext, len(dur["core.incext"]))
	}

	hits, misses := counted("core_gl_hits_total"), counted("core_gl_misses_total")
	if hits+misses > 0 {
		res.set("core.gl_hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	res.set("core.gl_evictions", counted("core_gl_evictions_total"), int(hits+misses))
	res.set("core.checkpoint_ms", t.w.checkpointMS, 1)
	res.set("core.snapshot_bytes", float64(rec.NewestSnap), 1)
	if rec.Records > 0 {
		res.set("core.replay_ms_per_record", rec.ReplayMS/float64(rec.Records), rec.Records)
		res.set("wal.bytes_per_record", float64(rec.LogBytes)/float64(rec.Records), rec.Records)
	}
	// Reader stall. A closed-loop reader sits through a stall and
	// contributes one slow sample to it, which no percentile shows; but
	// then the stalled reads are the slowest ones, one per reader per
	// batch: their mean latency over the quiet median is the stall.
	if stalled := min(ingests*(len(win.Sessions)-1), reads); stalled > 0 {
		res.set("core.reader_stall_ms", mean(win.ReadMS[reads-stalled:])-median(quiet), stalled)
	}
	ft := t.w.fix.T
	res.set("core.discover_s", ft.Discover, 1)
	res.set("core.extract_s", ft.Extract, 1)
	res.set("nn.train_s", ft.NNTrain, 1)
	res.set("embed.train_s", ft.EmbedTrain, 1)
	res.set("cluster.kmeans_ms", ft.KMeans*1e3, 1)
	res.set("wal.segments", float64(rec.Segments), 1)
	res.set("wal.recover_ms", rec.WALOpenMS, 1)

	// Trace overhead: the replayed requests against the same requests of
	// the quiet pass; the stall base is the whole quiet pass.
	quietSame := median(quiet[:len(t.wireReadUS)])
	res.set("bench.trace_overhead_pct", (median(t.wireReadUS)/1e3-quietSame)/quietSame*100, len(t.wireReadUS))
	res.set("bench.gen_lag_ms", mean(win.LagMS), len(win.LagMS))
	res.set("proc.peak_heap_mb", win.HeapInuseMB, 1)
	res.set("proc.gc_pause_ms_total", win.GCPauseMS, 1)

	res.Families = familyRows(t.tr.spans)
	res.Shares = layerShares(anatomyOf(t.tr.spans, "read:"), anatomyOf(t.tr.spans, "write:"), reads, ingests)
}
