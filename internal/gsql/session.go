// Session statements: SET, SHOW and TRACE. They configure or inspect
// one engine (one wire session) and never touch the planner.
package gsql

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// setParallelism handles the session statement SET PARALLELISM n
// (n >= 1; SET PARALLELISM DEFAULT restores the GOMAXPROCS default).
// A zero or negative degree is rejected: there is no zero-worker
// execution, and silently treating 0 as "default" used to mask typos.
// It returns a one-row status relation carrying the effective degree of
// parallelism.
func (e *Engine) setParallelism(args []string) (*rel.Relation, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("gsql: usage: SET PARALLELISM n|DEFAULT (n >= 1)")
	}
	n := 0
	if !strings.EqualFold(args[0], "default") {
		var err error
		n, err = strconv.Atoi(args[0])
		if err != nil || n < 1 {
			return nil, fmt.Errorf("gsql: SET PARALLELISM: want a positive integer or DEFAULT, got %q", args[0])
		}
	}
	e.Parallelism = n
	out := rel.NewRelation(rel.NewSchema("status", "",
		rel.Attribute{Name: "parallelism", Type: rel.KindInt},
	))
	out.InsertVals(rel.I(int64(e.Par())))
	return out, nil
}

// setSlowQueryMS handles SET SLOW_QUERY_MS n: this session's queries
// slower than n milliseconds are marked slow on their traces, so they
// land in the slow-query ring (/queries and /metrics surface them);
// n = 0 disables the mark.
func (e *Engine) setSlowQueryMS(args []string) (*rel.Relation, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("gsql: usage: SET SLOW_QUERY_MS n (0 = disabled)")
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("gsql: SET SLOW_QUERY_MS: want a non-negative integer, got %q", args[0])
	}
	e.slowQuery = time.Duration(n) * time.Millisecond
	out := rel.NewRelation(rel.NewSchema("status", "",
		rel.Attribute{Name: "slow_query_ms", Type: rel.KindInt},
	))
	out.InsertVals(rel.I(int64(n)))
	return out, nil
}

// showMetrics handles SHOW METRICS: the engine registry's snapshot as
// a sorted (metric, value) relation, histograms exploded into _count,
// _sum and quantile series.
func (e *Engine) showMetrics(extra []string) (*rel.Relation, error) {
	if len(extra) != 0 {
		return nil, fmt.Errorf("gsql: usage: SHOW METRICS")
	}
	snap := e.reg().Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := rel.NewRelation(rel.NewSchema("metrics", "metric",
		rel.Attribute{Name: "metric", Type: rel.KindString},
		rel.Attribute{Name: "value", Type: rel.KindString},
	))
	for _, k := range keys {
		out.InsertVals(rel.S(k), rel.S(strconv.FormatFloat(snap[k], 'g', -1, 64)))
	}
	return out, nil
}

// showSession handles SHOW SESSION: the per-session settings as a
// sorted (setting, value) relation — the effective degree of
// parallelism and this session's slow-query threshold — followed by
// version_seq, the store version this session's last query read
// (LastVersionSeq; a fact about the session, not a knob).
// Sessions sharing one catalog diverge only in the knobs, so the
// session-isolation property tests observe leakage (or its absence)
// through this statement alone.
func (e *Engine) showSession(extra []string) (*rel.Relation, error) {
	if len(extra) != 0 {
		return nil, fmt.Errorf("gsql: usage: SHOW SESSION")
	}
	out := rel.NewRelation(rel.NewSchema("session", "setting",
		rel.Attribute{Name: "setting", Type: rel.KindString},
		rel.Attribute{Name: "value", Type: rel.KindString},
	))
	out.InsertVals(rel.S("parallelism"), rel.S(strconv.Itoa(e.Par())))
	out.InsertVals(rel.S("slow_query_ms"), rel.S(strconv.FormatInt(e.slowQuery.Milliseconds(), 10)))
	out.InsertVals(rel.S("version_seq"), rel.S(strconv.FormatUint(e.LastVersionSeq, 10)))
	return out, nil
}

// showTraces handles SHOW TRACES: the retained traces newest-first as
// a (trace_id, status, duration_ms, spans, op) relation — the gSQL
// view of the same ring buffer /traces serves.
func (e *Engine) showTraces(extra []string) (*rel.Relation, error) {
	if len(extra) != 0 {
		return nil, fmt.Errorf("gsql: usage: SHOW TRACES")
	}
	out := rel.NewRelation(rel.NewSchema("traces", "trace_id",
		rel.Attribute{Name: "trace_id", Type: rel.KindString},
		rel.Attribute{Name: "status", Type: rel.KindString},
		rel.Attribute{Name: "duration_ms", Type: rel.KindFloat},
		rel.Attribute{Name: "spans", Type: rel.KindInt},
		rel.Attribute{Name: "op", Type: rel.KindString},
	))
	for _, t := range e.traces().List() {
		out.InsertVals(
			rel.S(t.ID()),
			rel.S(t.Status()),
			rel.F(float64(t.Duration())/float64(time.Millisecond)),
			rel.I(int64(t.SpanCount())),
			rel.S(t.Op()),
		)
	}
	return out, nil
}

// traceQuery handles TRACE <query>: it executes the query with
// tracing forced on (bypassing sampling), retains the trace, and
// returns the rendered span tree — phases and per-operator spans
// grafted in — as a (step, note) relation whose first row carries the
// trace id for /traces/<id> lookup. Under the network server the
// query's trace already exists (the server started it at the wire);
// TRACE then forces that trace to be kept and renders the engine's
// view of it.
func (e *Engine) traceQuery(ctx context.Context, rest string) (*rel.Relation, error) {
	if rest == "" {
		return nil, fmt.Errorf("gsql: usage: TRACE <query>")
	}
	tr := obs.TraceFromContext(ctx)
	owned := tr == nil
	if owned {
		tr = e.tracer().Start(rest, 0)
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	tr.SetForced()
	res, _, err := e.run(ctx, rest)
	if owned {
		status, rows := "error", 0
		if err == nil {
			status, rows = "ok", res.Len()
		}
		tr.SetResult(rows, err)
		e.endQuery(tr, status)
	}
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(rel.NewSchema("trace", "",
		rel.Attribute{Name: "step", Type: rel.KindInt},
		rel.Attribute{Name: "note", Type: rel.KindString},
	))
	out.InsertVals(rel.I(0), rel.S("trace_id: "+tr.ID()))
	tree := strings.TrimRight(tr.RenderTree(e.LastTrace).String(), "\n")
	step := int64(1)
	for _, line := range strings.Split(tree, "\n") {
		out.InsertVals(rel.I(step), rel.S(line))
		step++
	}
	return out, nil
}
