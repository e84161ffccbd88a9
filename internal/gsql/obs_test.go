package gsql

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// newObsEngine builds a fintech engine with a private registry and
// query log, so assertions see only this test's traffic.
func newObsEngine(t *testing.T) (*Engine, *obs.Registry, *obs.QueryLog) {
	f := getFintech(t)
	e := NewEngine(f.cat)
	e.Obs = obs.NewRegistry()
	e.Queries = obs.NewQueryLog()
	return e, e.Obs, e.Queries
}

func TestQueryMetricsRecorded(t *testing.T) {
	e, reg, _ := newObsEngine(t)
	if _, err := e.Query(`select pid from product where price >= 100`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`select bogus from nowhere`); err == nil {
		t.Fatal("want error for unknown relation")
	}
	vals := reg.CounterValues()
	if vals["gsql_queries_total"] != 2 {
		t.Fatalf("gsql_queries_total = %d, want 2", vals["gsql_queries_total"])
	}
	if vals["gsql_query_errors_total"] != 1 {
		t.Fatalf("gsql_query_errors_total = %d, want 1", vals["gsql_query_errors_total"])
	}
	snap := reg.Snapshot()
	if snap["gsql_query_seconds_count"] != 2 {
		t.Fatalf("gsql_query_seconds_count = %v, want 2", snap["gsql_query_seconds_count"])
	}
	// Per-operator row counters flow through the query context.
	if vals[`rel_op_rows_total{op="scan"}`] == 0 {
		t.Fatalf("no scan rows recorded: %v", vals)
	}
}

func TestMetricsEndpointServesEngineTraffic(t *testing.T) {
	e, reg, log := newObsEngine(t)
	// Two identical l-joins: the first misses the gL cache, the second
	// hits, so both counters appear in the exposition. The predicate is
	// unique to this test — the fixture's gL cache is shared across the
	// package, and a key another test already populated would turn the
	// expected miss into a hit.
	q := `select customer.cid from customer l-join <Gp> customer as customer2
	      where customer.bal >= 98765`
	for i := 0; i < 2; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(obs.Handler(reg, log, obs.NewTraceStore(8)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"core_gl_hits_total 1",
		"core_gl_misses_total 1",
		"# TYPE gsql_query_seconds histogram",
		`gsql_query_seconds_bucket{le="+Inf"} 2`,
		"gsql_queries_total 2",
		"core_gl_entries ", // gauge counts the shared fixture cache, so only presence is stable
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestShowMetricsStatement(t *testing.T) {
	e, _, _ := newObsEngine(t)
	if _, err := e.Query(`select pid from product`); err != nil {
		t.Fatal(err)
	}
	out, err := e.Query(`show metrics`)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]string{}
	for _, tup := range out.Tuples {
		found[out.Get(tup, "metric").String()] = out.Get(tup, "value").String()
	}
	if found["gsql_queries_total"] != "1" {
		t.Fatalf("gsql_queries_total = %q in %v", found["gsql_queries_total"], found)
	}
	if _, ok := found["gsql_query_seconds_p95"]; !ok {
		t.Fatalf("histogram quantiles missing from SHOW METRICS: %v", found)
	}
	// Rows come out sorted by metric name.
	var prev string
	for _, tup := range out.Tuples {
		name := out.Get(tup, "metric").String()
		if name < prev {
			t.Fatalf("SHOW METRICS not sorted: %q after %q", name, prev)
		}
		prev = name
	}
	if _, err := e.Query(`show metrics please`); err == nil {
		t.Fatal("trailing arguments should error")
	}
}

func TestSetSlowQueryMSStatement(t *testing.T) {
	e, reg, log := newObsEngine(t)
	out, err := e.Query(`set slow_query_ms 0`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Get(out.Tuples[0], "slow_query_ms").Int() != 0 {
		t.Fatalf("status relation = %v", out)
	}
	if _, err := e.Query(`select pid from product`); err != nil {
		t.Fatal(err)
	}
	if len(log.Slow()) != 0 {
		t.Fatal("threshold 0 must disable slow classification")
	}
	// A 1ns threshold makes every query slow.
	e.slowQuery = time.Nanosecond
	res, err := e.Query(`select pid from product`)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Slow()) != 1 {
		t.Fatalf("slow queries = %d, want 1", len(log.Slow()))
	}
	if s := log.Slow()[0]; s.ID() != e.LastTraceID {
		t.Fatalf("slow record = trace %s, want %s", s.ID(), e.LastTraceID)
	} else if rows, _ := s.Result(); rows != res.Len() {
		t.Fatalf("slow record rows = %d, want %d", rows, res.Len())
	}
	if reg.CounterValues()["gsql_slow_queries_total"] != 1 {
		t.Fatal("gsql_slow_queries_total not incremented")
	}
	if len(log.Recent()) != 2 {
		t.Fatalf("recent queries = %d, want 2", len(log.Recent()))
	}
	for _, bad := range []string{`set slow_query_ms`, `set slow_query_ms -1`, `set slow_query_ms x`} {
		if _, err := e.Query(bad); err == nil {
			t.Fatalf("%q should error", bad)
		}
	}
}

func TestExplainAnalyzeTrace(t *testing.T) {
	e, _, _ := newObsEngine(t)
	e.Parallelism = 2
	text, err := e.ExplainAnalyze(`explain analyze
		select pid, risk from product where price >= 100 order by pid limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text, "well-behaved: ") {
		t.Fatalf("verdict missing:\n%s", text)
	}
	for _, want := range []string{"query  time=", "  parse  time=", "  plan  time=", "  execute  time="} {
		if !strings.Contains(text, want) {
			t.Fatalf("span %q missing:\n%s", want, text)
		}
	}
	// The operator tree nests under the execute span: every LastStats
	// line appears, indented two levels deeper than its own depth.
	for _, l := range e.LastStats.Lines {
		nl := l
		nl.Depth += 2
		if !strings.Contains(text, nl.String()+"\n") {
			t.Fatalf("operator line %q missing:\n%s", nl.String(), text)
		}
	}
	// Span ordering: parse before plan before execute, all after query.
	pq := strings.Index(text, "query  time=")
	pp := strings.Index(text, "  parse  time=")
	pl := strings.Index(text, "  plan  time=")
	px := strings.Index(text, "  execute  time=")
	if !(pq < pp && pp < pl && pl < px) {
		t.Fatalf("span order wrong (%d %d %d %d):\n%s", pq, pp, pl, px, text)
	}
}

func TestExplainAnalyzeQueryPrefix(t *testing.T) {
	e, _, _ := newObsEngine(t)
	out, err := e.Query(`explain analyze select pid from product`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.Name != "plan" {
		t.Fatalf("schema = %v", out.Schema)
	}
	var notes []string
	for _, tup := range out.Tuples {
		notes = append(notes, out.Get(tup, "note").String())
	}
	joined := strings.Join(notes, "\n")
	for _, want := range []string{"well-behaved: ", "query  time=", "  execute  time="} {
		if !strings.Contains(joined, want) {
			t.Fatalf("EXPLAIN ANALYZE relation missing %q:\n%s", want, joined)
		}
	}
}

func TestExplainAnalyzeConsistentWithPlanLines(t *testing.T) {
	e, _, _ := newObsEngine(t)
	text, err := e.ExplainAnalyze(`select customer.cid from customer l-join <Gp> customer as customer2`)
	if err != nil {
		t.Fatal(err)
	}
	// Every plan line embedded in the trace parses back to the same
	// label/rows as LastStats reports (the span tree and the operator
	// stats describe one and the same execution).
	var parsed []rel.PlanLine
	for _, line := range strings.Split(text, "\n") {
		if l, ok := rel.ParsePlanLine(line); ok && l.Label != "query" {
			parsed = append(parsed, l)
		}
	}
	if len(parsed) != len(e.LastStats.Lines) {
		t.Fatalf("trace has %d operator lines, stats %d:\n%s", len(parsed), len(e.LastStats.Lines), text)
	}
	for i, l := range e.LastStats.Lines {
		if parsed[i].Label != l.Label || parsed[i].Rows != l.Rows || parsed[i].Depth != l.Depth+2 {
			t.Fatalf("line %d mismatch: trace %+v vs stats %+v", i, parsed[i], l)
		}
	}
}
