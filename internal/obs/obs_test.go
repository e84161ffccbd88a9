package obs

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("q_total")
	c.Inc()
	c.Add(4)
	if got := r.Counter("q_total").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("entries")
	g.Set(7)
	g.Add(-2)
	if got := r.Gauge("entries").Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	// Labelled series are distinct from the bare family and from each
	// other, but stable per label set.
	r.Counter("rows", "op", "scan").Add(10)
	r.Counter("rows", "op", "select").Add(3)
	if r.Counter("rows", "op", "scan").Value() != 10 || r.Counter("rows", "op", "select").Value() != 3 {
		t.Fatal("labelled counters not independent")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", nil).Observe(1)
	if r.Snapshot() != nil || r.CounterValues() != nil {
		t.Fatal("nil registry snapshots should be nil")
	}
	if r.PrometheusText() != "" {
		t.Fatal("nil registry should render empty")
	}
	var l *QueryLog
	l.Record(queryTrace("q", "ok", time.Millisecond, 0, nil, true))
	if l.Recent() != nil || l.Slow() != nil {
		t.Fatal("nil query log should no-op")
	}
	var s *Span
	s.StartChild("a").End()
	s.End()
	if s.String() != "" {
		t.Fatal("nil span should render empty")
	}
	if FromContext(nil) != nil || FromContext(context.Background()) != nil {
		t.Fatal("FromContext without registry should be nil")
	}
}

func TestContextRoundTrip(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	if FromContext(ctx) != r {
		t.Fatal("registry did not round-trip through context")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", SizeBuckets)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-500500) > 1e-6 {
		t.Fatalf("sum = %f", s.Sum)
	}
	// Bucketed quantiles are approximate; doubling buckets bound the
	// error by 2x.
	p50 := s.Quantile(0.50)
	if p50 < 250 || p50 > 1000 {
		t.Fatalf("p50 = %f out of range", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %f < p50 %f", p99, p50)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1e-5)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("core_gl_hits_total").Add(3)
	r.Counter("rel_op_rows_total", "op", "scan").Add(12)
	r.Gauge("core_gl_entries").Set(2)
	r.Histogram("gsql_query_seconds", nil).Observe(0.01)
	text := r.PrometheusText()
	for _, want := range []string{
		"# TYPE core_gl_hits_total counter\ncore_gl_hits_total 3\n",
		"# TYPE rel_op_rows_total counter\nrel_op_rows_total{op=\"scan\"} 12\n",
		"# TYPE core_gl_entries gauge\ncore_gl_entries 2\n",
		"# TYPE gsql_query_seconds histogram\n",
		"gsql_query_seconds_count 1\n",
		`gsql_query_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Cumulative bucket counts must be monotone and end at count.
	if !strings.Contains(text, "gsql_query_seconds_sum 0.01") {
		t.Errorf("histogram sum missing:\n%s", text)
	}
}

func TestHistogramLabelsExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("core_rext_phase_seconds", nil, "phase", "selection").Observe(0.5)
	text := r.PrometheusText()
	if !strings.Contains(text, `core_rext_phase_seconds_bucket{phase="selection",le="+Inf"} 1`) {
		t.Fatalf("labelled histogram bucket missing:\n%s", text)
	}
	if !strings.Contains(text, `core_rext_phase_seconds_count{phase="selection"} 1`) {
		t.Fatalf("labelled histogram count missing:\n%s", text)
	}
}

func TestSpanTree(t *testing.T) {
	root := StartSpan("query")
	p := root.StartChild("parse")
	p.End()
	e := root.StartChild("execute")
	e.Note = "workers=2"
	e.End()
	root.End()
	if root.Duration <= 0 {
		t.Fatal("root duration not set")
	}
	var names []string
	var depths []int
	root.Walk(func(s *Span, d int) { names = append(names, s.Name); depths = append(depths, d) })
	if strings.Join(names, ",") != "query,parse,execute" {
		t.Fatalf("walk order = %v", names)
	}
	if depths[0] != 0 || depths[1] != 1 || depths[2] != 1 {
		t.Fatalf("depths = %v", depths)
	}
	text := root.String()
	if !strings.Contains(text, "  execute [workers=2]  time=") {
		t.Fatalf("render = %q", text)
	}
	// End is idempotent.
	d := root.Duration
	root.End()
	if root.Duration != d {
		t.Fatal("second End changed duration")
	}
}

// queryTrace builds a finished query trace as EndQuery would file it,
// with its duration pinned to d.
func queryTrace(op, status string, d time.Duration, rows int, err error, slow bool) *Trace {
	tr := DefaultTracer.Start(op, 0)
	tr.SetResult(rows, err)
	if slow {
		tr.MarkSlow()
	}
	tr.duration = d // Finish keeps a duration already set
	tr.Finish(status)
	return tr
}

func TestQueryLogRings(t *testing.T) {
	l := NewQueryLog()
	l.Record(queryTrace("q", "ok", time.Hour, 0, nil, false))
	if len(l.Slow()) != 0 {
		t.Fatal("a trace not marked slow must never classify slow")
	}
	for i := 0; i < recentRingCap+10; i++ {
		dur := time.Millisecond
		if i%2 == 0 {
			dur = 20 * time.Millisecond
		}
		l.Record(queryTrace("q", "ok", dur, 0, nil, dur >= 10*time.Millisecond))
	}
	if got := len(l.Recent()); got != recentRingCap {
		t.Fatalf("recent len = %d, want %d", got, recentRingCap)
	}
	if got := len(l.Slow()); got != slowRingCap {
		t.Fatalf("slow len = %d, want %d", got, slowRingCap)
	}
	for _, tr := range l.Slow() {
		if tr.Duration() < 10*time.Millisecond {
			t.Fatalf("fast query in slow ring: %v", tr.Duration())
		}
	}
}

// TestEndQueryFilesOnce: EndQuery finishes the trace, keeps it in the
// store when the tracer samples it, and files it in the log exactly
// once either way.
func TestEndQueryFilesOnce(t *testing.T) {
	for _, rate := range []float64{0, 1} {
		tr, ts, l := NewTracer(rate, 0), NewTraceStore(8), NewQueryLog()
		q := tr.Start("select 1", 0)
		q.SetResult(3, nil)
		EndQuery(q, "ok", tr, ts, l)
		if q.Status() != "ok" || q.Duration() == 0 {
			t.Fatalf("rate %v: trace not finished: status %q", rate, q.Status())
		}
		if got := ts.Len(); got != int(rate) {
			t.Fatalf("rate %v: store holds %d traces", rate, got)
		}
		recent := l.Recent()
		if len(recent) != 1 || recent[0] != q {
			t.Fatalf("rate %v: log = %v", rate, recent)
		}
		if rows, _ := recent[0].Result(); rows != 3 {
			t.Fatalf("rate %v: filed rows = %d, want 3", rate, rows)
		}
	}
}

func TestSnapshotExplodesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat", nil).Observe(0.5)
	snap := r.Snapshot()
	for _, k := range []string{"lat_count", "lat_sum", "lat_p50", "lat_p95", "lat_p99"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("snapshot missing %s: %v", k, snap)
		}
	}
	if snap["lat_count"] != 1 {
		t.Fatalf("lat_count = %v", snap["lat_count"])
	}
}
