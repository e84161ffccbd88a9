package gsql

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"time"

	"semjoin/internal/core"
	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// Mode selects the semantic-join execution strategy.
type Mode int

// Execution modes.
const (
	// ModeAuto uses the static/dynamic implementation for well-behaved
	// joins, the heuristic joiner for non-well-behaved ones (when
	// profiled), and falls back to the conceptual baseline.
	ModeAuto Mode = iota
	// ModeBaseline always runs HER and RExt online (§IV-A baseline).
	ModeBaseline
	// ModeHeuristic forces heuristic joins everywhere (used by the
	// Table III accuracy experiment).
	ModeHeuristic
)

// Catalog binds names to data and to the machinery the executor needs.
type Catalog struct {
	Relations map[string]*rel.Relation
	Graphs    map[string]*graph.Graph

	// Models and Matcher power the conceptual-level baseline.
	Models  core.Models
	Matcher her.Matcher
	// Mat holds the offline pre-computation for static joins (optional).
	Mat *core.Materialized
	// Heur answers non-well-behaved joins without HER/RExt (optional).
	Heur *core.HeuristicJoiner
	// K is the path/hop bound for semantic joins (default 3).
	K int
	// RExt is the template configuration for online extractions.
	RExt core.Config

	// Durable holds the write-ahead-logged store opened with the OPEN
	// statement (or -data-dir at startup): one, the store of the graph
	// domain Mat is. A query reads the version it had published when the
	// query started and takes no lock, so streamed updates neither race a
	// scan nor hold one up.
	Durable *core.DurableSet
	// DurableOpts configures stores opened through this catalog
	// (fsync policy, segment size, auto-checkpoint cadence).
	DurableOpts core.DurableOptions
}

// Relation resolves a base relation name, preferring the published
// durable state when the base is backed by an open WAL store: a relation
// replacement streamed through the store is visible to the next query
// without rebinding the catalog map. It answers for the current state;
// a caller that resolves more than one name takes one core.View
// (c.Mat.View()) and asks RelationIn and GraphIn, as a query does.
func (c *Catalog) Relation(name string) *rel.Relation {
	return c.RelationIn(c.Mat.View(), name)
}

// Graph resolves a graph name. A name bound to the graph the
// materialisation was built over follows an open store's published
// graph, as Relation follows its D.
func (c *Catalog) Graph(name string) *graph.Graph {
	return c.GraphIn(c.Mat.View(), name)
}

// RelationIn is Relation within one view, so that every name read
// through it comes from the same store versions.
func (c *Catalog) RelationIn(v *core.View, name string) *rel.Relation {
	if d := v.Relation(name); d != nil {
		return d
	}
	return c.Relations[name]
}

// GraphIn is Graph within one view.
func (c *Catalog) GraphIn(v *core.View, name string) *graph.Graph {
	return v.Resolve(c.Graphs[name])
}

// Engine plans gSQL queries into pipelined operator trees and drains
// them against a catalog: session statements live in session.go, the
// planner in planner.go and predicate.go, EXPLAIN rendering in
// explain.go; this file is the executor — statement dispatch, the
// traced parse/plan/execute run and its accounting.
type Engine struct {
	Cat  *Catalog
	Mode Mode

	// Parallelism is the degree of parallelism for morsel-driven
	// operators (exchange over WHERE/projection) and the per-vertex BFS
	// fan-out of link joins: 0 (the default) means one worker per
	// logical CPU, 1 forces serial execution. Settable per session with
	// the statement SET PARALLELISM n.
	Parallelism int

	// Plan records, for the last query, one line per semantic join
	// describing the strategy chosen (static / dynamic / heuristic /
	// baseline) — the observable outcome of the well-behaved analysis.
	Plan []string
	// LastStats holds the per-operator counters (rows out, wall time)
	// of the last executed query's operator tree.
	LastStats *rel.ExecStats

	// Obs receives the engine's metrics (query counters and latency,
	// operator row counts, gL cache traffic, ...). Nil means the
	// process-wide obs.Default registry — the one -debug-addr serves.
	Obs *obs.Registry
	// Queries receives the traces of the queries this engine owns —
	// those run without a caller's trace in the context; nil means
	// obs.DefaultQueries. A served query's trace belongs to the server,
	// which files it in its own log.
	Queries *obs.QueryLog
	// LastTrace is the root span of the last executed query: parse,
	// plan and execute children with wall times. EXPLAIN ANALYZE renders
	// it merged with LastStats.
	LastTrace *obs.Span

	// Tracer decides trace ids and sampling; nil means obs.DefaultTracer
	// (keep everything). When the caller (the network server) already
	// installed a trace in the context, the engine attaches its spans to
	// that trace instead of starting one.
	Tracer *obs.Tracer
	// Traces receives kept traces; nil means obs.DefaultTraces. SHOW
	// TRACES lists this store.
	Traces *obs.TraceStore
	// Log receives structured query-outcome records (errors, slow
	// queries); nil disables engine logging (the wrapper no-ops).
	Log *obs.Logger
	// LastTraceID is the id of the last executed query's trace — the
	// handle /traces/<id> serves when the trace was kept.
	LastTraceID string
	// LastVersionSeq is the WAL sequence number of the store version the
	// last executed query read (core.View.Seq): its result is the result
	// on exactly the updates logged up to it. 0 when no store is open.
	LastVersionSeq uint64

	// slowQuery is the session's SET SLOW_QUERY_MS threshold: a query
	// whose "query" span lasts at least this long is marked slow on its
	// trace. 0 disables the mark.
	slowQuery time.Duration

	// view is the state the statement in flight reads: run sets it,
	// QueryContext drops it.
	view *core.View
}

// NewEngine returns an engine in ModeAuto.
func NewEngine(cat *Catalog) *Engine {
	if cat.K == 0 {
		cat.K = 3
	}
	return &Engine{Cat: cat}
}

// Par resolves the engine's degree of parallelism: Parallelism when
// positive, GOMAXPROCS otherwise.
func (e *Engine) Par() int {
	if e.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Parallelism
}

// reg resolves the engine's metrics registry (obs.Default unless set).
func (e *Engine) reg() *obs.Registry {
	if e.Obs != nil {
		return e.Obs
	}
	return obs.Default
}

// endQuery ends a query whose trace the engine owns, filing it in the
// engine's trace store and query log (the process-wide ones unless
// set).
func (e *Engine) endQuery(tr *obs.Trace, status string) {
	queries := e.Queries
	if queries == nil {
		queries = obs.DefaultQueries
	}
	obs.EndQuery(tr, status, e.tracer(), e.traces(), queries)
}

// tracer resolves the engine's tracer (obs.DefaultTracer unless set).
func (e *Engine) tracer() *obs.Tracer {
	if e.Tracer != nil {
		return e.Tracer
	}
	return obs.DefaultTracer
}

// traces resolves the engine's trace store (obs.DefaultTraces unless set).
func (e *Engine) traces() *obs.TraceStore {
	if e.Traces != nil {
		return e.Traces
	}
	return obs.DefaultTraces
}

// Query parses and executes input, returning the result relation. An
// input prefixed with EXPLAIN executes the query and returns the plan
// notes (the well-behaved verdict, one row per semantic join, then the
// annotated operator tree) instead of the data.
func (e *Engine) Query(input string) (*rel.Relation, error) {
	return e.QueryContext(context.Background(), input)
}

// QueryContext is Query with cancellation: ctx is checked periodically
// while the operator tree drains.
func (e *Engine) QueryContext(ctx context.Context, input string) (*rel.Relation, error) {
	defer e.unpin()
	trimmed := strings.TrimSpace(input)
	if f := strings.Fields(trimmed); len(f) >= 1 {
		two := len(f) >= 2
		switch {
		case two && strings.EqualFold(f[0], "set") && strings.EqualFold(f[1], "parallelism"):
			return e.setParallelism(f[2:])
		case two && strings.EqualFold(f[0], "set") && strings.EqualFold(f[1], "slow_query_ms"):
			return e.setSlowQueryMS(f[2:])
		case two && strings.EqualFold(f[0], "show") && strings.EqualFold(f[1], "metrics"):
			return e.showMetrics(f[2:])
		case two && strings.EqualFold(f[0], "show") && strings.EqualFold(f[1], "session"):
			return e.showSession(f[2:])
		case two && strings.EqualFold(f[0], "show") && strings.EqualFold(f[1], "traces"):
			return e.showTraces(f[2:])
		case strings.EqualFold(f[0], "open"):
			return e.openDurable(ctx, f[1:])
		case strings.EqualFold(f[0], "checkpoint"):
			return e.checkpointDurable(ctx, f[1:])
		case strings.EqualFold(f[0], "trace"):
			// Matches a bare TRACE too, so the usage error comes from
			// traceQuery rather than a confusing parser diagnostic.
			return e.traceQuery(ctx, strings.TrimSpace(trimmed[len(f[0]):]))
		}
	}
	explain, analyze := false, false
	if len(trimmed) >= 7 && strings.EqualFold(trimmed[:7], "explain") {
		explain = true
		input = trimmed[7:]
		if rest := strings.TrimSpace(input); len(rest) >= 7 && strings.EqualFold(rest[:7], "analyze") {
			analyze = true
			input = rest[7:]
		}
	}
	out, q, err := e.run(ctx, input)
	if err != nil {
		return nil, err
	}
	if analyze {
		return e.analyzeRelation(q), nil
	}
	if explain {
		return e.explainRelation(q), nil
	}
	return out, nil
}

// unpin drops the view run pinned. The statement's entry point defers
// it, so that what follows run there — EXPLAIN's well-behaved verdict —
// is judged on the view the query read, and an idle session holds no
// version.
func (e *Engine) unpin() { e.view = nil }

// pin loads the view the statement in flight reads. An engine without a
// catalog has none to load, and still reports a parse error as one.
func (e *Engine) pin() {
	if e.Cat != nil {
		e.view = e.Cat.Mat.View()
	}
}

// run parses, plans and executes one query under a root trace span,
// recording latency metrics for every outcome (parse and plan errors
// included) and marking the trace slow by the session's threshold.
// The span tree is kept on LastTrace.
//
// Tracing ownership: when the caller already put a trace in ctx (the
// network server does, so the wire-read and admission spans precede
// the engine's), run attaches the "query" span to it and leaves ending
// it to the owner. Otherwise run owns the trace end to end: it creates
// one and ends it with the outcome (obs.EndQuery), which is the
// query's one record.
func (e *Engine) run(ctx context.Context, input string) (*rel.Relation, *Query, error) {
	// The one place a query meets the durable store: one load of its
	// version, and the plan and the drain below read that version
	// whatever commits meanwhile. No lock is taken.
	e.pin()
	e.LastVersionSeq = e.view.Seq()
	reg := e.reg()
	ctx = obs.WithRegistry(ctx, reg)
	tr := obs.TraceFromContext(ctx)
	owned := tr == nil
	if owned {
		tr = e.tracer().Start(strings.TrimSpace(input), 0)
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	root := tr.StartSpan("query")
	if root == nil {
		root = obs.StartSpan("query")
	}
	if e.LastVersionSeq > 0 {
		root.Note = "version seq " + strconv.FormatUint(e.LastVersionSeq, 10)
		reg.Counter("core_version_reads_total").Inc()
	}
	e.LastTrace = root
	e.LastTraceID = tr.ID()
	out, q, err := e.runSpanned(ctx, root, input)
	root.End()

	reg.Counter("gsql_queries_total").Inc()
	status := "ok"
	if err != nil {
		reg.Counter("gsql_query_errors_total").Inc()
		status = "error"
	}
	reg.Histogram("gsql_query_seconds", nil).Observe(root.Duration.Seconds())
	rows := 0
	if out != nil {
		rows = out.Len()
	}
	tr.SetOperators(statsOps(e.LastStats))
	slow := e.slowQuery > 0 && root.Duration >= e.slowQuery
	if slow {
		tr.MarkSlow()
		reg.Counter("gsql_slow_queries_total").Inc()
	}
	if owned {
		tr.SetResult(rows, err)
		e.endQuery(tr, status)
	}
	query := strings.TrimSpace(input)
	if err != nil {
		e.Log.Warn("query failed", "err", err.Error(), "trace_id", tr.ID(), "query", query)
	} else if slow {
		e.Log.Info("slow query",
			"duration_ms", float64(root.Duration)/float64(time.Millisecond),
			"trace_id", tr.ID(), "rows", rows, "query", query)
	}
	return out, q, err
}

// statsOps flattens the executed plan's per-operator stats into the
// obs representation traces carry.
func statsOps(stats *rel.ExecStats) []obs.OpNode {
	if stats == nil || len(stats.Lines) == 0 {
		return nil
	}
	ops := make([]obs.OpNode, len(stats.Lines))
	for i, l := range stats.Lines {
		ops[i] = obs.OpNode{
			Depth: l.Depth, Name: l.Label, Note: l.Note,
			Rows: l.Rows, Batches: l.Batches, Workers: l.Workers,
			Elapsed: l.Elapsed,
		}
	}
	return ops
}

// runSpanned is run's traced body: parse, plan and execute children
// hang off root, and LastStats is collected even when execution fails.
func (e *Engine) runSpanned(ctx context.Context, root *obs.Span, input string) (*rel.Relation, *Query, error) {
	sp := root.StartChild("parse")
	q, err := Parse(input)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	e.Plan = e.Plan[:0]
	sp = root.StartChild("plan")
	top, _, err := e.planQuery(q)
	sp.End()
	if err != nil {
		return nil, q, err
	}
	sp = root.StartChild("execute")
	out, err := rel.Materialize(ctx, top)
	sp.End()
	e.LastStats = rel.CollectStats(top)
	if err != nil {
		return nil, q, err
	}
	return out, q, nil
}
