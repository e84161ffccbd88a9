package main

import "fmt"

// extractF1Floor fails a run whose fixture extracts worse than this:
// below it the e-joins the workloads time return mostly wrong values,
// and their latencies mean nothing. The generated Drugs collection
// extracts at 1.0 with the benchmark's training set-up.
const extractF1Floor = 0.9

// runResult is one run of one workload: what the driver's last line
// carries, plus the notes a human wants when it fails.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
	// Shares is the traced run's layer-share table (layer -> % of
	// request wall time spent in the layer's own code).
	Shares map[string]float64 `json:"layer_share_pct,omitempty"`
	// Families is the traced replay broken down by query family.
	Families []familyRow `json:"families,omitempty"`
}

// set records a metric under its catalogue unit; a name outside the
// catalogue is a bug in this program.
func (r *runResult) set(name string, value float64, samples int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("semjoinbench: metric " + name + " is not in the catalogue")
	}
	r.Metrics[name] = measurement{Value: value, Unit: unit, Samples: samples}
}

var unitOf = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}()

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runUntraced measures the end-to-end metrics of one workload: one
// set-up, the timed window, the output check, the quiet ingest tail of a
// read-only workload and the recovery drill.
func runUntraced(spec workloadSpec, opt options) (*runResult, error) {
	res := &runResult{Workload: spec.Name, Seed: opt.Seed, Metrics: map[string]measurement{}}
	w, err := setUp(spec, opt)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()

	f1, err := w.fix.extractF1()
	if err != nil {
		return nil, err
	}
	win := w.runWindow(opt.Seconds)
	if !spec.Writer {
		if err := w.checkReads(win); err != nil {
			return nil, err
		}
		w.runTail(win)
	}
	rec, err := w.recoverStore(win.MaxSeq, false)
	if err != nil {
		return nil, err
	}

	res.set("setup_s", w.setupS, 1)
	win.reportEndToEnd(res, rec)
	judge(res, win, rec, f1)
	return res, nil
}

// reportEndToEnd sets the end-to-end metrics a window and its restart
// drill give (all but setup_s).
func (r *windowResult) reportEndToEnd(res *runResult, rec *recoveryResult) {
	reads, ingests := len(r.ReadMS), len(r.IngestMS)
	res.set("throughput_rps", r.throughput(), r.WindowRequests)
	res.set("read_p50_ms", r.readPercentile(0.50), reads)
	res.set("read_p95_ms", r.readPercentile(0.95), reads)
	res.set("ingest_p50_ms", percentile(r.IngestMS, 0.50), ingests)
	res.set("ingest_p95_ms", percentile(r.IngestMS, 0.95), ingests)
	res.set("updates_per_s", float64(r.Updates)/r.IngestSeconds, r.Updates)
	res.set("recovery_s", median(rec.Seconds), len(rec.Seconds))
	res.set("wal_bytes_per_update", float64(rec.LogBytes+rec.SnapBytes)/float64(max(r.Updates, 1)), r.Updates)
	res.set("alloc_kb_per_req", float64(r.AllocBytes)/1024/float64(max(r.WindowRequests, 1)), r.WindowRequests)
}

// judge fills the verdict: attempted/failed counts and the correctness
// conditions whose violation makes the command exit non-zero.
func judge(res *runResult, win *windowResult, rec *recoveryResult, f1 float64) {
	res.Attempted = win.attempted()
	res.Failed = win.failed()
	res.Correct = true
	fail := func(format string, args ...any) {
		res.Correct = false
		res.note(format, args...)
	}
	if win.FirstErr != "" {
		res.note("first error: %s", win.FirstErr)
	}
	for _, q := range win.TimedOut {
		res.note("client deadline exceeded: %s", q)
	}
	if res.Failed > 0 {
		fail("%d of %d requests failed (%d errors, %d shed, %d timeouts, %d wrong results)",
			res.Failed, res.Attempted, win.Errs, win.Sheds, win.Timeouts, win.Wrong)
	}
	if len(win.ReadMS) == 0 || len(win.IngestMS) == 0 {
		fail("%d reads and %d ingest batches completed; every workload needs both", len(win.ReadMS), len(win.IngestMS))
	}
	if !win.SeqsIncreasing {
		fail("acked WAL sequence numbers are not strictly increasing")
	}
	if rec.LostAcks > 0 {
		fail("%d acked updates lost by recovery", rec.LostAcks)
	}
	if !rec.StateEqual {
		fail("recovered extracted relation differs from the pre-shutdown one")
	}
	if f1 < extractF1Floor {
		fail("core.extract_f1 %.3f is below the floor %.2f", f1, extractF1Floor)
	}
}
