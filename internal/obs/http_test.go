package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("core_gl_hits_total").Add(2)
	r.Counter("core_gl_misses_total").Add(1)
	r.Histogram("gsql_query_seconds", nil).Observe(0.002)
	srv := httptest.NewServer(Handler(r, NewQueryLog(), NewTraceStore(8)))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"core_gl_hits_total 2",
		"core_gl_misses_total 1",
		"# TYPE gsql_query_seconds histogram",
		"gsql_query_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestQueriesEndpoint(t *testing.T) {
	l := NewQueryLog()
	l.Record(queryTrace("select 1", "ok", time.Millisecond, 1, nil, false))
	l.Record(queryTrace("select slow", "ok", 50*time.Millisecond, 9, nil, true))
	srv := httptest.NewServer(Handler(NewRegistry(), l, NewTraceStore(8)))
	defer srv.Close()

	code, body := get(t, srv, "/queries")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var payload struct {
		Recent []struct {
			Query string `json:"query"`
		} `json:"recent"`
		Slow []struct {
			Query      string  `json:"query"`
			DurationMS float64 `json:"duration_ms"`
			Rows       int     `json:"rows"`
		} `json:"slow"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	// There is no log-wide threshold: each session marks its own.
	if strings.Contains(body, "slow_query_ms") {
		t.Fatalf("/queries still reports a slow_query_ms:\n%s", body)
	}
	if len(payload.Recent) != 2 || len(payload.Slow) != 1 {
		t.Fatalf("recent=%d slow=%d", len(payload.Recent), len(payload.Slow))
	}
	if payload.Slow[0].Query != "select slow" || payload.Slow[0].DurationMS != 50 || payload.Slow[0].Rows != 9 {
		t.Fatalf("slow entry = %+v", payload.Slow[0])
	}
}

// tracedStore builds a store with three finished traces of staggered
// durations and distinct ops for the filter tests.
func tracedStore() *TraceStore {
	ts := NewTraceStore(8)
	for i, spec := range []struct {
		id, op string
		dur    time.Duration
	}{
		{"t-fast", "select 1", time.Millisecond},
		{"t-mid", "select pid from product", 10 * time.Millisecond},
		{"t-slow", "select cid from customer l-join <Gp> product", 100 * time.Millisecond},
	} {
		tr := DefaultTracer.Start(spec.op, int64(i+1))
		tr.SetID(spec.id)
		tr.SetStart(time.Now().Add(-spec.dur))
		root := tr.StartSpan("request")
		root.StartChild("query").End()
		tr.Finish("ok")
		ts.Add(tr)
	}
	return ts
}

func TestTracesListEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), NewQueryLog(), tracedStore()))
	defer srv.Close()

	type listing struct {
		Count    int `json:"count"`
		Retained int `json:"retained"`
		Capacity int `json:"capacity"`
		Traces   []struct {
			TraceID    string  `json:"trace_id"`
			Op         string  `json:"op"`
			Status     string  `json:"status"`
			DurationMS float64 `json:"duration_ms"`
			Spans      int     `json:"spans"`
		} `json:"traces"`
	}
	fetch := func(path string) listing {
		t.Helper()
		code, body := get(t, srv, path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, code, body)
		}
		var l listing
		if err := json.Unmarshal([]byte(body), &l); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", path, err, body)
		}
		return l
	}

	all := fetch("/traces")
	if all.Count != 3 || all.Retained != 3 || all.Capacity != 8 {
		t.Fatalf("listing header = %+v", all)
	}
	if all.Traces[0].TraceID != "t-slow" {
		t.Fatalf("newest-first order: first = %s", all.Traces[0].TraceID)
	}
	for _, tr := range all.Traces {
		if tr.Status != "ok" || tr.Spans == 0 {
			t.Fatalf("malformed summary %+v", tr)
		}
	}

	if slow := fetch("/traces?min_ms=50"); slow.Count != 1 || slow.Traces[0].TraceID != "t-slow" {
		t.Fatalf("min_ms filter: %+v", slow)
	}
	if byOp := fetch("/traces?op=customer"); byOp.Count != 1 || byOp.Traces[0].TraceID != "t-slow" {
		t.Fatalf("op filter: %+v", byOp)
	}
	if lim := fetch("/traces?limit=2"); lim.Count != 2 || lim.Retained != 3 {
		t.Fatalf("limit: %+v", lim)
	}
	if code, _ := get(t, srv, "/traces?min_ms=potato"); code != http.StatusBadRequest {
		t.Fatalf("bad min_ms: status %d", code)
	}
}

func TestTraceDetailEndpointFormats(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), NewQueryLog(), tracedStore()))
	defer srv.Close()

	code, body := get(t, srv, "/traces/t-slow")
	if code != http.StatusOK {
		t.Fatalf("json detail: status %d", code)
	}
	var detail struct {
		TraceID string `json:"trace_id"`
		Root    *struct {
			Name string `json:"name"`
		} `json:"root"`
	}
	if err := json.Unmarshal([]byte(body), &detail); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if detail.TraceID != "t-slow" || detail.Root == nil || detail.Root.Name != "request" {
		t.Fatalf("detail = %+v", detail)
	}

	code, body = get(t, srv, "/traces/t-slow?format=chrome")
	if code != http.StatusOK || !strings.Contains(body, `"traceEvents"`) {
		t.Fatalf("chrome format: %d %s", code, body)
	}
	code, body = get(t, srv, "/traces/t-slow?format=text")
	if code != http.StatusOK || !strings.Contains(body, "trace t-slow") {
		t.Fatalf("text format: %d %s", code, body)
	}
	if code, _ = get(t, srv, "/traces/t-slow?format=yaml"); code != http.StatusBadRequest {
		t.Fatalf("bad format: status %d", code)
	}
	code, body = get(t, srv, "/traces/nope")
	if code != http.StatusNotFound || !strings.Contains(body, "not found") {
		t.Fatalf("missing trace: %d %s", code, body)
	}
}

func TestQueriesEndpointStatusCounts(t *testing.T) {
	l := NewQueryLog()
	for _, q := range []struct {
		op, status, id string
		err            error
	}{
		{"ok q", "ok", "id-1", nil},
		{"bad q", "error", "id-2", errors.New("boom")},
		{"busy q", "shed", "id-3", errors.New("server busy")},
	} {
		tr := queryTrace(q.op, q.status, time.Millisecond, 0, q.err, false)
		tr.SetID(q.id)
		l.Record(tr)
	}
	srv := httptest.NewServer(Handler(NewRegistry(), l, nil))
	defer srv.Close()

	code, body := get(t, srv, "/queries")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var payload struct {
		Recent []struct {
			Query   string `json:"query"`
			Status  string `json:"status"`
			TraceID string `json:"trace_id"`
			Err     string `json:"err"`
		} `json:"recent"`
		Counts map[string]int `json:"counts"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	want := map[string]string{"ok q": "ok", "bad q": "error", "busy q": "shed"}
	for _, r := range payload.Recent {
		if r.Status != want[r.Query] {
			t.Errorf("%q status = %q, want %q", r.Query, r.Status, want[r.Query])
		}
	}
	if payload.Counts["ok"] != 1 || payload.Counts["error"] != 1 || payload.Counts["shed"] != 1 {
		t.Fatalf("counts = %v", payload.Counts)
	}
	if payload.Recent[1].Err != "boom" {
		t.Fatalf("failed record must carry its error text: %+v", payload.Recent[1])
	}
	if payload.Recent[2].TraceID != "id-3" {
		t.Fatalf("shed record must carry its trace id: %+v", payload.Recent[2])
	}
}

func TestDebugMuxSurfaces(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Inc()
	srv := httptest.NewServer(DebugMux(r, NewQueryLog(), NewTraceStore(8)))
	defer srv.Close()

	for path, want := range map[string]string{
		"/":            "/debug/pprof/",
		"/metrics":     "x_total 1",
		"/queries":     `"recent"`,
		"/debug/vars":  "semjoin_metrics",
		"/debug/pprof": "", // redirect or index both acceptable, just not 500
	} {
		code, body := get(t, srv, path)
		if code != http.StatusOK && code != http.StatusMovedPermanently {
			t.Errorf("%s: status %d", path, code)
		}
		if want != "" && !strings.Contains(body, want) {
			t.Errorf("%s missing %q:\n%s", path, want, body)
		}
	}
	// Building a second mux must not panic on duplicate expvar names.
	DebugMux(NewRegistry(), nil, nil)
}
