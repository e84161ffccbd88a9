package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"semjoin/internal/gsql/difftest"
	"semjoin/internal/obs"
)

// tracedServer boots a server over a seeded fixture with an isolated
// trace store, query log and (optionally buffered) structured logger,
// so trace assertions never race with other tests' default-store
// traffic.
func tracedServer(t *testing.T, lim Limits, sig Signals, logBuf *bytes.Buffer) (*Server, *obs.TraceStore, *obs.QueryLog) {
	t.Helper()
	fix, err := difftest.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	ts := obs.NewTraceStore(64)
	ql := obs.NewQueryLog()
	var logger *obs.Logger
	if logBuf != nil {
		logger = obs.NewLogger(logBuf, slog.LevelDebug)
	}
	srv, err := New(Config{
		Cat: fix.Cat, Reg: obs.NewRegistry(), Limits: lim, Signals: sig,
		Tracer: obs.NewTracer(1.0, 0), Traces: ts, Queries: ql, Log: logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts, ql
}

// spanNames flattens a rendered trace tree into its span names.
func spanNames(tr *obs.Trace) []string {
	var names []string
	tr.RenderRoot().Walk(func(sp *obs.Span, _ int) { names = append(names, sp.Name) })
	return names
}

func TestWireTraceIDPropagation(t *testing.T) {
	srv, ts, _ := tracedServer(t, Limits{}, nil, nil)
	c := dialPipe(t, srv)

	resp := c.roundTrip(Request{Op: OpQuery, Query: "select pid from product", TraceID: "client-chose-this"})
	if !resp.OK {
		t.Fatalf("query failed: %+v", resp)
	}
	if resp.TraceID != "client-chose-this" {
		t.Fatalf("response trace id = %q, want the client-supplied one", resp.TraceID)
	}
	tr := ts.Get("client-chose-this")
	if tr == nil {
		t.Fatal("client-named trace not retained")
	}
	names := spanNames(tr)
	for _, want := range []string{"request", "wire_read", "admission", "query", "parse", "plan", "execute"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trace missing span %q; got %v", want, names)
		}
	}
	if tr.Status() != "ok" {
		t.Errorf("status = %q", tr.Status())
	}
}

func TestWireTraceIDSanitized(t *testing.T) {
	srv, ts, _ := tracedServer(t, Limits{}, nil, nil)
	c := dialPipe(t, srv)

	// Newlines and spaces could inject log fields; the server must
	// discard the id and assign its own.
	resp := c.roundTrip(Request{Op: OpQuery, Query: "select pid from product", TraceID: "evil\ninjection"})
	if !resp.OK {
		t.Fatalf("query failed: %+v", resp)
	}
	if resp.TraceID == "evil\ninjection" || resp.TraceID == "" || len(resp.TraceID) != 16 {
		t.Fatalf("unsanitized or missing trace id %q", resp.TraceID)
	}
	if ts.Get("evil\ninjection") != nil {
		t.Fatal("hostile id must not become a store key")
	}
	if ts.Get(resp.TraceID) == nil {
		t.Fatal("replacement id not retained")
	}
}

// TestConcurrentSessionTraces drives N sessions in parallel (run under
// -race in CI) and requires each session's trace to be a well-formed,
// non-interleaved tree: exactly one engine query subtree under the
// request root, operators nested under that session's own execute
// span, and the N session ids all distinct.
func TestConcurrentSessionTraces(t *testing.T) {
	const n = 8
	srv, ts, _ := tracedServer(t, Limits{}, nil, nil)

	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialPipe(t, srv)
			q := fmt.Sprintf("select pid, price from product where price >= %d order by pid", 10+i)
			resp := c.roundTrip(Request{Op: OpQuery, Query: q})
			if !resp.OK {
				t.Errorf("session %d: %+v", i, resp)
				return
			}
			ids[i] = resp.TraceID
		}(i)
	}
	wg.Wait()

	sessions := map[int64]bool{}
	for i, id := range ids {
		if id == "" {
			t.Fatalf("session %d returned no trace id", i)
		}
		tr := ts.Get(id)
		if tr == nil {
			t.Fatalf("trace %s not retained", id)
		}
		sessions[tr.Session()] = true

		// Well-formed: one request root, exactly one query child with
		// exactly one parse/plan/execute each — an interleaved tree
		// would double up or lose spans.
		counts := map[string]int{}
		for _, name := range spanNames(tr) {
			counts[name]++
		}
		for _, want := range []string{"request", "query", "parse", "plan", "execute", "wire_read", "admission"} {
			if counts[want] != 1 {
				t.Errorf("trace %s: span %q count = %d, want 1", id, want, counts[want])
			}
		}
		if counts["op:scan product"] == 0 {
			t.Errorf("trace %s: no operator spans grafted", id)
		}
	}
	if len(sessions) != n {
		t.Fatalf("distinct sessions in traces = %d, want %d", len(sessions), n)
	}
}

// TestShedRequestsTracedAndLogged forces a queue_full shed and checks
// all three observability surfaces agree: the response carries a
// trace id, the trace store retains the shed trace (always, despite
// sampling), the shared query log records status "shed", and the
// structured log names the reason and trace id.
func TestShedRequestsTracedAndLogged(t *testing.T) {
	sig := &fakeSignals{}
	var logBuf bytes.Buffer
	srv, ts, ql := tracedServer(t, Limits{MaxConcurrent: 1, MaxQueue: 2}, sig, &logBuf)
	c := dialPipe(t, srv)

	release, err := srv.Controller().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sig.queued.Store(2)
	resp := c.query("select pid from product")
	sig.queued.Store(0)
	release()

	if resp.OK || resp.Code != "busy" {
		t.Fatalf("expected shed, got %+v", resp)
	}
	if resp.TraceID == "" {
		t.Fatal("shed response must carry a trace id")
	}
	tr := ts.Get(resp.TraceID)
	if tr == nil {
		t.Fatal("shed trace not retained")
	}
	if tr.Status() != "shed" {
		t.Fatalf("trace status = %q, want shed", tr.Status())
	}

	var rec *obs.Trace
	for _, r := range ql.Recent() {
		if r.ID() == resp.TraceID {
			rec = r
		}
	}
	if rec == nil {
		t.Fatal("shed request missing from shared query log")
	}
	if rec.Status() != "shed" {
		t.Fatalf("query log status = %q, want shed", rec.Status())
	}

	logged := false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var entry map[string]any
		if json.Unmarshal([]byte(line), &entry) != nil {
			continue
		}
		if entry["msg"] == "request shed" {
			logged = true
			if entry["reason"] != "queue_full" {
				t.Errorf("shed reason = %v, want queue_full", entry["reason"])
			}
			if entry["trace_id"] != resp.TraceID {
				t.Errorf("shed log trace_id = %v, want %s", entry["trace_id"], resp.TraceID)
			}
		}
	}
	if !logged {
		t.Fatalf("no structured shed record in log:\n%s", logBuf.String())
	}
}

// TestErrorQueryTraced: a failing statement still produces a finished
// trace with status "error" and a matching query-log record.
func TestErrorQueryTraced(t *testing.T) {
	srv, ts, ql := tracedServer(t, Limits{}, nil, nil)
	c := dialPipe(t, srv)

	resp := c.query("select nope from no_such_table")
	if resp.OK {
		t.Fatal("query against a missing table must fail")
	}
	if resp.TraceID == "" {
		t.Fatal("error response must carry a trace id")
	}
	tr := ts.Get(resp.TraceID)
	if tr == nil || tr.Status() != "error" {
		t.Fatalf("trace = %v (status %q), want retained with status error", tr, tr.Status())
	}
	found := false
	for _, r := range ql.Recent() {
		if r.ID() == resp.TraceID && r.Status() == "error" {
			found = true
		}
	}
	if !found {
		t.Fatal("error not recorded in shared query log")
	}
}

// TestSlowQueriesReachSharedLog: a session's SET SLOW_QUERY_MS decides
// which of its queries the server's shared log files as slow, each
// request is filed there exactly once, and the threshold stays the
// session's own.
func TestSlowQueriesReachSharedLog(t *testing.T) {
	srv, ts, ql := tracedServer(t, Limits{}, nil, nil)
	c := dialPipe(t, srv)
	c.mustRows("SET SLOW_QUERY_MS 1")

	const n = 20
	const q = "select * from customer as c, product as p, customer as c2, product as p2"
	rows := map[string]int{}
	var slowIDs []string
	for i := 0; i < n; i++ {
		resp := c.mustRows(q)
		rows[resp.TraceID] = resp.RowsTotal
		// The engine marks a query slow by its own "query" span.
		var engine time.Duration
		ts.Get(resp.TraceID).Root.Walk(func(sp *obs.Span, _ int) {
			if sp.Name == "query" {
				engine = sp.Duration
			}
		})
		if engine >= time.Millisecond {
			slowIDs = append(slowIDs, resp.TraceID)
		}
	}
	if len(slowIDs) == 0 {
		t.Fatalf("none of %d cross products took 1ms; the test needs a heavier query", n)
	}
	var gotSlow []string
	for _, tr := range ql.Slow() {
		gotSlow = append(gotSlow, tr.ID())
		if got, _ := tr.Result(); got != rows[tr.ID()] || got == 0 {
			t.Errorf("slow record %s: rows = %d, want %d", tr.ID(), got, rows[tr.ID()])
		}
	}
	if strings.Join(gotSlow, ",") != strings.Join(slowIDs, ",") {
		t.Fatalf("slow ring = %v, want the %d queries over 1ms %v", gotSlow, len(slowIDs), slowIDs)
	}
	t.Logf("%d of %d queries took at least 1ms", len(slowIDs), n)

	other := dialPipe(t, srv)
	show := other.mustRows("SHOW SESSION")
	threshold := ""
	for _, row := range show.Rows {
		if row[0] == "slow_query_ms" {
			threshold = row[1]
		}
	}
	if threshold != "0" {
		t.Fatalf("second session reads slow_query_ms %q, want 0", threshold)
	}

	// SET, the n queries and SHOW SESSION: one record each.
	recent := ql.Recent()
	if len(recent) != n+2 {
		t.Fatalf("query log holds %d records for %d requests", len(recent), n+2)
	}
	seen := map[string]bool{}
	for _, tr := range recent {
		if seen[tr.ID()] {
			t.Fatalf("trace %s filed twice", tr.ID())
		}
		seen[tr.ID()] = true
	}
}
