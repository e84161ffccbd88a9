package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one end-to-end query execution: a span tree rooted at the
// first StartSpan (the server's wire-level "request" span, or the
// engine's "query" span when no server is involved) plus two kinds of
// out-of-band timing that cannot live in the span tree directly:
//
//   - phases: named regions recorded from worker goroutines (HER
//     matching, BFS reachability, gL cache fills, RExt extraction,
//     IncExt maintenance). Span trees are single-goroutine by
//     contract, so concurrent phases append here under a mutex and
//     are grafted into a rendered copy of the tree on demand.
//   - operators: the per-operator stats the engine collects after
//     execution (rows, batches, elapsed, workers), nested by plan
//     depth under the execute span when rendered.
//
// A Trace is the query's only record: besides the timing it carries
// the result rows, the error text and a slow mark, which /queries
// reads. It is mutated only by the goroutines of the query it records
// and becomes immutable once EndQuery has run and handed it to a
// TraceStore and a QueryLog; readers (HTTP handlers, SHOW TRACES)
// only see it through those. All methods are nil-safe no-ops.
type Trace struct {
	id      string
	session int64
	op      string
	start   time.Time
	forced  atomic.Bool
	slow    atomic.Bool

	// Root is the top of the span tree. It is built by the session
	// goroutine only (same contract as Span).
	Root *Span

	mu       sync.Mutex
	duration time.Duration
	status   string
	rows     int
	errText  string
	phases   []PhaseRecord
	ops      []OpNode
}

// PhaseRecord is one named execution region recorded via Phase —
// possibly from a worker goroutine, possibly overlapping others.
type PhaseRecord struct {
	Name     string
	Start    time.Time
	Duration time.Duration
}

// OpNode is one operator of the executed plan, flattened with its
// nesting depth (depth 0 = plan root). It mirrors rel.PlanLine without
// importing rel (obs sits below rel in the dependency order).
type OpNode struct {
	Depth   int
	Name    string
	Note    string
	Rows    int64
	Batches int64
	Workers int
	Elapsed time.Duration
}

// idState drives splitmix64 trace-id generation: the additive constant
// is the splitmix64 gamma, so successive IDs are well distributed even
// though allocation is a plain atomic add.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()))
}

// NewTraceID returns a fresh 16-hex-digit trace id. IDs are unique
// within a process run and sufficiently mixed to be sampled, sharded
// or grepped without collisions in practice.
func NewTraceID() string {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b5
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return fmt.Sprintf("%016x", x)
}

// ID returns the trace id ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetID overrides the trace id (client-supplied wire propagation) and
// forces the trace to be kept: a caller who named the trace wants to
// find it again.
func (t *Trace) SetID(id string) {
	if t == nil || id == "" {
		return
	}
	t.id = id
	t.forced.Store(true)
}

// SetForced marks the trace to be kept regardless of sampling (TRACE
// statements, client-supplied ids).
func (t *Trace) SetForced() {
	if t != nil {
		t.forced.Store(true)
	}
}

// Forced reports whether the trace bypasses sampling.
func (t *Trace) Forced() bool {
	return t != nil && t.forced.Load()
}

// Session returns the session id the trace was started under (0 when
// not run through the server).
func (t *Trace) Session() int64 {
	if t == nil {
		return 0
	}
	return t.session
}

// Op returns the operation label (normally the query text).
func (t *Trace) Op() string {
	if t == nil {
		return ""
	}
	return t.op
}

// Start returns the trace start time.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// SetStart rebases the trace start (the server rebases to the instant
// the request line was decoded off the wire).
func (t *Trace) SetStart(at time.Time) {
	if t != nil && !at.IsZero() {
		t.start = at
	}
}

// StartSpan opens a span under the trace: the root if none exists
// yet, otherwise a child of the root. Must be called from the session
// goroutine (span trees are not goroutine-safe); worker goroutines
// record Phase instead.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	if t.Root == nil {
		t.Root = StartSpan(name)
		return t.Root
	}
	return t.Root.StartChild(name)
}

// Phase records a named region that started at start and ends now.
// Safe to call from any goroutine, including several concurrently.
func (t *Trace) Phase(name string, start time.Time) {
	if t == nil {
		return
	}
	rec := PhaseRecord{Name: name, Start: start, Duration: time.Since(start)}
	t.mu.Lock()
	t.phases = append(t.phases, rec)
	t.mu.Unlock()
}

// Phases returns the recorded phases sorted by start time.
func (t *Trace) Phases() []PhaseRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]PhaseRecord(nil), t.phases...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// SetOperators attaches the executed plan's per-operator stats.
func (t *Trace) SetOperators(ops []OpNode) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ops = ops
	t.mu.Unlock()
}

// Operators returns the attached per-operator stats.
func (t *Trace) Operators() []OpNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops
}

// Finish freezes the trace: ends the root span, stamps the duration
// and final status ("ok", "error", "shed"). Repeated Finish keeps the
// first duration but lets the status be refined.
func (t *Trace) Finish(status string) {
	if t == nil {
		return
	}
	t.Root.End()
	t.mu.Lock()
	if t.duration == 0 {
		t.duration = time.Since(t.start)
	}
	t.status = status
	t.mu.Unlock()
}

// SetResult records the query's outcome beside its timing: the rows
// it returned and, when it failed, the error text.
func (t *Trace) SetResult(rows int, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rows = rows
	if err != nil {
		t.errText = err.Error()
	}
	t.mu.Unlock()
}

// Result returns what SetResult recorded: the rows and the error text
// ("" on success).
func (t *Trace) Result() (rows int, errText string) {
	if t == nil {
		return 0, ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rows, t.errText
}

// MarkSlow marks the query slow by its session's threshold, so that
// QueryLog.Record also files it in the slow ring.
func (t *Trace) MarkSlow() {
	if t != nil {
		t.slow.Store(true)
	}
}

// Slow reports whether MarkSlow ran.
func (t *Trace) Slow() bool {
	return t != nil && t.slow.Load()
}

// Duration returns the frozen trace duration (0 before Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.duration
}

// Status returns the final status set by Finish ("" before).
func (t *Trace) Status() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// SpanCount counts every timed element the trace holds: tree spans,
// phases and operators.
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	n := 0
	t.Root.Walk(func(*Span, int) { n++ })
	t.mu.Lock()
	n += len(t.phases) + len(t.ops)
	t.mu.Unlock()
	return n
}

// Tracer decides which traces are created with which ids and which
// finished traces are worth keeping. Sampling is decided at the END
// of a query, not the start: spans are cheap enough to always record,
// and deciding late is what makes "always keep slow queries" possible.
// All methods are nil-safe.
type Tracer struct {
	rate float64       // probabilistic keep rate in [0,1]
	slow time.Duration // traces at least this slow are always kept; 0 disables
	rng  atomic.Uint64 // private splitmix64 stream for keep decisions
}

// NewTracer returns a tracer that keeps finished traces with
// probability rate (clamped to [0,1]) and always keeps traces slower
// than slowAlways (0 disables the slow override). Forced traces are
// always kept regardless.
func NewTracer(rate float64, slowAlways time.Duration) *Tracer {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	if slowAlways < 0 {
		slowAlways = 0
	}
	return &Tracer{rate: rate, slow: slowAlways}
}

// DefaultTracer keeps every trace: deterministic, and the bounded
// DefaultTraces ring caps the memory. Servers that need cheaper
// tracing install their own NewTracer(rate, slow).
var DefaultTracer = NewTracer(1.0, 0)

// Rate returns the probabilistic keep rate.
func (tr *Tracer) Rate() float64 {
	if tr == nil {
		return 0
	}
	return tr.rate
}

// SlowAlways returns the always-keep slowness threshold.
func (tr *Tracer) SlowAlways() time.Duration {
	if tr == nil {
		return 0
	}
	return tr.slow
}

// Start creates a trace for one operation. Nil-safe: a nil tracer
// yields a nil trace, and every Trace method no-ops on nil, so an
// untraced path costs one nil check per call site.
func (tr *Tracer) Start(op string, session int64) *Trace {
	if tr == nil {
		return nil
	}
	return &Trace{id: NewTraceID(), session: session, op: op, start: time.Now()}
}

// Keep reports whether a finished trace should be retained: forced
// traces always, slow traces (>= SlowAlways) always, otherwise a coin
// flip at Rate. Call after Finish so the duration is frozen.
func (tr *Tracer) Keep(t *Trace) bool {
	if tr == nil || t == nil {
		return false
	}
	if t.Forced() {
		return true
	}
	if tr.slow > 0 && t.Duration() >= tr.slow {
		return true
	}
	if tr.rate >= 1 {
		return true
	}
	if tr.rate <= 0 {
		return false
	}
	x := tr.rng.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b5
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	// Top 53 bits → uniform float64 in [0,1).
	return float64(x>>11)/(1<<53) < tr.rate
}

// RenderTree returns a deep copy of root with the trace's phases and
// operators grafted in as synthetic spans ("phase:…" under the last
// "execute" descendant, or the root when none; "op:…" nested by plan
// depth below that). The copy is what /traces/<id> and the TRACE
// statement render; the live tree is never mutated, so EXPLAIN
// ANALYZE's own walk of LastTrace stays duplicate-free.
func (t *Trace) RenderTree(root *Span) *Span {
	if t == nil || root == nil {
		return copySpan(root)
	}
	cp := copySpan(root)
	target := lastDescendant(cp, "execute")
	if target == nil {
		target = cp
	}
	for _, ph := range t.Phases() {
		target.Children = append(target.Children, &Span{
			Name:     "phase:" + ph.Name,
			Start:    ph.Start,
			Duration: ph.Duration,
		})
	}
	graftOps(target, t.Operators())
	return cp
}

// RenderRoot renders the trace's own root tree (the wire-level view).
func (t *Trace) RenderRoot() *Span {
	if t == nil {
		return nil
	}
	return t.RenderTree(t.Root)
}

func copySpan(s *Span) *Span {
	if s == nil {
		return nil
	}
	cp := &Span{Name: s.Name, Note: s.Note, Start: s.Start, Duration: s.Duration}
	for _, c := range s.Children {
		cp.Children = append(cp.Children, copySpan(c))
	}
	return cp
}

// lastDescendant finds the last span named name in pre-order (the
// engine's execute span is the last one opened under the query span).
func lastDescendant(s *Span, name string) *Span {
	var found *Span
	s.Walk(func(sp *Span, _ int) {
		if sp.Name == name {
			found = sp
		}
	})
	return found
}

// graftOps nests the flattened operator list under target using each
// node's plan depth. Operator spans carry the plan's own start time
// approximated by the target span (per-operator wall-clock starts are
// not tracked; elapsed is exact).
func graftOps(target *Span, ops []OpNode) {
	stack := []*Span{target}
	for _, op := range ops {
		depth := op.Depth
		if depth < 0 {
			depth = 0
		}
		// A well-formed plan never skips depths, but clamp anyway so a
		// malformed one nests under the deepest open span instead of
		// indexing past the stack.
		if depth > len(stack)-1 {
			depth = len(stack) - 1
		}
		if depth+1 < len(stack) {
			stack = stack[:depth+1]
		}
		parent := stack[len(stack)-1]
		note := op.Note
		extra := opStatNote(op)
		if extra != "" {
			if note != "" {
				note += " "
			}
			note += extra
		}
		sp := &Span{
			Name:     "op:" + op.Name,
			Note:     note,
			Start:    target.Start,
			Duration: op.Elapsed,
		}
		parent.Children = append(parent.Children, sp)
		stack = append(stack, sp)
	}
}

func opStatNote(op OpNode) string {
	parts := []string{fmt.Sprintf("rows=%d", op.Rows)}
	if op.Batches > 0 {
		parts = append(parts, fmt.Sprintf("batches=%d", op.Batches))
	}
	if op.Workers > 1 {
		parts = append(parts, fmt.Sprintf("workers=%d", op.Workers))
	}
	return strings.Join(parts, " ")
}
