package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewTraceIDShapeAndUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex digits", id)
		}
		for _, c := range id {
			if !strings.ContainsRune("0123456789abcdef", c) {
				t.Fatalf("id %q: non-hex rune %q", id, c)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate id %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestTracerKeepPolicy(t *testing.T) {
	finish := func(tr *Tracer, force bool) *Trace {
		tc := tr.Start("q", 1)
		if force {
			tc.SetForced()
		}
		tc.Finish("ok")
		return tc
	}

	always := NewTracer(1.0, 0)
	if !always.Keep(finish(always, false)) {
		t.Error("rate 1.0 must keep everything")
	}
	never := NewTracer(0, 0)
	if never.Keep(finish(never, false)) {
		t.Error("rate 0 must keep nothing unforced")
	}
	if !never.Keep(finish(never, true)) {
		t.Error("forced traces bypass rate 0")
	}

	// Slow override: rebase the start so the frozen duration clears the
	// threshold.
	slow := NewTracer(0, 50*time.Millisecond)
	tc := slow.Start("q", 1)
	tc.SetStart(time.Now().Add(-time.Second))
	tc.Finish("ok")
	if !slow.Keep(tc) {
		t.Error("trace slower than SlowAlways must be kept at rate 0")
	}

	// Probabilistic keep: at rate 0.25 over 4000 coin flips the keep
	// count concentrates tightly around 1000; a [700, 1300] window is
	// ~11 standard deviations wide.
	prob := NewTracer(0.25, 0)
	kept := 0
	for i := 0; i < 4000; i++ {
		if prob.Keep(finish(prob, false)) {
			kept++
		}
	}
	if kept < 700 || kept > 1300 {
		t.Errorf("rate 0.25: kept %d of 4000, outside [700,1300]", kept)
	}

	var nilTracer *Tracer
	if nilTracer.Start("q", 1) != nil {
		t.Error("nil tracer must start nil traces")
	}
	if nilTracer.Keep(finish(always, true)) {
		t.Error("nil tracer keeps nothing")
	}
}

func TestTracerClampsRate(t *testing.T) {
	if r := NewTracer(-3, 0).Rate(); r != 0 {
		t.Errorf("rate clamped low: got %v", r)
	}
	if r := NewTracer(7, 0).Rate(); r != 1 {
		t.Errorf("rate clamped high: got %v", r)
	}
}

func TestTraceSetIDForcesKeep(t *testing.T) {
	tr := NewTracer(0, 0)
	tc := tr.Start("q", 1)
	tc.SetID("client-chosen-id")
	tc.Finish("ok")
	if tc.ID() != "client-chosen-id" {
		t.Fatalf("id = %q", tc.ID())
	}
	if !tr.Keep(tc) {
		t.Error("client-named trace must be kept regardless of rate")
	}
}

func TestTraceRenderTreeGraftsPhasesAndOps(t *testing.T) {
	tc := DefaultTracer.Start("select 1", 7)
	root := tc.StartSpan("query")
	exec := root.StartChild("execute")
	tc.Phase("her_match", time.Now().Add(-time.Millisecond))
	tc.SetOperators([]OpNode{
		{Depth: 0, Name: "project", Rows: 10, Batches: 2},
		{Depth: 1, Name: "scan product", Rows: 13, Workers: 4},
	})
	exec.End()
	tc.Finish("ok")

	rendered := tc.RenderRoot().String()
	for _, want := range []string{
		"phase:her_match",
		"op:project [rows=10 batches=2]",
		"op:scan product [rows=13 workers=4]",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered tree missing %q:\n%s", want, rendered)
		}
	}
	// The op spans must nest by plan depth: scan indented under project.
	proj := strings.Index(rendered, "op:project")
	scan := strings.Index(rendered, "op:scan")
	if proj < 0 || scan < proj {
		t.Fatalf("operator order wrong:\n%s", rendered)
	}

	// Rendering must not mutate the live tree — EXPLAIN ANALYZE walks
	// it and would double-print grafted spans.
	liveSpans := 0
	tc.Root.Walk(func(*Span, int) { liveSpans++ })
	if liveSpans != 2 {
		t.Fatalf("live tree has %d spans after render, want 2 (query, execute)", liveSpans)
	}
}

func TestTracePhaseConcurrent(t *testing.T) {
	tc := DefaultTracer.Start("q", 1)
	tc.StartSpan("query")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tc.Phase(fmt.Sprintf("worker%d", i), time.Now())
			}
		}(i)
	}
	wg.Wait()
	tc.Finish("ok")
	if got := len(tc.Phases()); got != 400 {
		t.Fatalf("phases recorded = %d, want 400", got)
	}
}

func TestTraceStoreEvictsOldestFirst(t *testing.T) {
	s := NewTraceStore(3)
	mk := func(id string) *Trace {
		tc := DefaultTracer.Start("q "+id, 0)
		tc.SetID(id)
		tc.Finish("ok")
		return tc
	}
	for _, id := range []string{"a", "b", "c"} {
		s.Add(mk(id))
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	s.Add(mk("d")) // evicts "a", the oldest
	if s.Len() != 3 {
		t.Fatalf("len after eviction = %d", s.Len())
	}
	if s.Get("a") != nil {
		t.Error("oldest trace a still retrievable after eviction")
	}
	for _, id := range []string{"b", "c", "d"} {
		if s.Get(id) == nil {
			t.Errorf("trace %s missing", id)
		}
	}
	var ids []string
	for _, tr := range s.List() {
		ids = append(ids, tr.ID())
	}
	if strings.Join(ids, ",") != "d,c,b" {
		t.Fatalf("List order = %v, want newest-first [d c b]", ids)
	}

	s.Add(mk("e")) // evicts "b"
	if s.Get("b") != nil || s.Get("c") == nil {
		t.Error("second eviction must remove b, keep c")
	}

	var nilStore *TraceStore
	nilStore.Add(mk("x"))
	if nilStore.Get("x") != nil || nilStore.List() != nil || nilStore.Len() != 0 {
		t.Error("nil store must no-op")
	}
}

func TestTraceStoreDefaultCapacity(t *testing.T) {
	if c := NewTraceStore(0).Cap(); c != defaultTraceCap {
		t.Fatalf("cap = %d, want %d", c, defaultTraceCap)
	}
}

func TestTraceJSONFormats(t *testing.T) {
	tc := DefaultTracer.Start("select 1", 5)
	root := tc.StartSpan("request")
	root.Record("wire_read", tc.Start(), 50*time.Microsecond)
	q := root.StartChild("query")
	q.End()
	tc.Finish("ok")

	raw := TraceJSON(tc)
	var payload struct {
		TraceID string `json:"trace_id"`
		Status  string `json:"status"`
		Session int64  `json:"session"`
		Root    struct {
			Name     string `json:"name"`
			SpanID   int    `json:"span_id"`
			Children []struct {
				Name     string `json:"name"`
				ParentID int    `json:"parent_span_id"`
			} `json:"children"`
		} `json:"root"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatalf("bad trace JSON: %v\n%s", err, raw)
	}
	if payload.TraceID != tc.ID() || payload.Status != "ok" || payload.Session != 5 {
		t.Fatalf("payload header = %+v", payload)
	}
	if payload.Root.Name != "request" || len(payload.Root.Children) != 2 {
		t.Fatalf("root = %+v", payload.Root)
	}
	for _, c := range payload.Root.Children {
		if c.ParentID != payload.Root.SpanID {
			t.Errorf("child %s parent_span_id = %d, want %d", c.Name, c.ParentID, payload.Root.SpanID)
		}
	}

	chrome := TraceChromeJSON(tc)
	var cp struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			PID  int    `json:"pid"`
			TID  int64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &cp); err != nil {
		t.Fatalf("bad chrome JSON: %v\n%s", err, chrome)
	}
	if len(cp.TraceEvents) != 3 {
		t.Fatalf("chrome events = %d, want 3", len(cp.TraceEvents))
	}
	for _, ev := range cp.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 || ev.TID != 5 {
			t.Fatalf("bad event %+v", ev)
		}
	}

	text := TraceText(tc)
	if !strings.Contains(text, tc.ID()) || !strings.Contains(text, "wire_read") {
		t.Fatalf("text rendering:\n%s", text)
	}
}

func TestLoggerJSONAndLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	l.Debug("hidden")
	l.Info("query done", "session", int64(3), "trace_id", "abc", "duration_ms", 1.5)
	l.Warn("request shed", "reason", "queue_full")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d (debug must be filtered):\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line not JSON: %v\n%s", err, lines[0])
	}
	if rec["msg"] != "query done" || rec["trace_id"] != "abc" || rec["session"] != float64(3) {
		t.Fatalf("record = %v", rec)
	}

	child := l.With("session", int64(9))
	child.Error("boom", "err", "bad")
	var erec map[string]any
	last := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(last[len(last)-1]), &erec); err != nil {
		t.Fatal(err)
	}
	if erec["session"] != float64(9) || erec["level"] != "ERROR" {
		t.Fatalf("child record = %v", erec)
	}

	var nilLogger *Logger
	nilLogger.Info("no-op") // must not panic
	nilLogger.With("k", "v").Warn("still no-op")
	NopLogger().Error("discarded")
}

func TestParseLogLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"":        slog.LevelInfo,
		"debug":   slog.LevelDebug,
		"info":    slog.LevelInfo,
		"warn":    slog.LevelWarn,
		"warning": slog.LevelWarn,
		"error":   slog.LevelError,
		"ERROR":   slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("loud"); err == nil {
		t.Error("bogus level must error")
	}
}
