// Package fixture exercises the spanfinish analyzer: every span or
// trace created via obs.StartSpan, Span.StartChild, Trace.StartSpan or
// Tracer.Start must reach End/Finish on all paths or be handed off.
package fixture

import (
	"errors"
	"time"

	"semjoin/internal/obs"
)

var errBoom = errors.New("boom")

func work() error { return errBoom }

// The PR-8 regression shape: the span is ended on the happy path only;
// the early error return leaks it and the duration histogram never
// sees the failed request.
func leakOnEarlyReturn() error {
	sp := obs.StartSpan("execute") // want "span/trace is not ended on every path"
	if err := work(); err != nil {
		return err
	}
	sp.End()
	return nil
}

func leakChildOnBranch(root *obs.Span) {
	child := root.StartChild("probe") // want "span/trace is not ended on every path"
	if work() != nil {
		return
	}
	child.End()
}

func traceNeverFinished(tr *obs.Tracer) error {
	t := tr.Start("query", 1) // want "span/trace is not ended on every path"
	if err := work(); err != nil {
		return err
	}
	t.Finish("ok")
	return nil
}

func droppedChild(root *obs.Span) {
	root.StartChild("orphan") // want "result of span creation is discarded"
}

func droppedRootSpan(t *obs.Trace) {
	t.StartSpan("orphan") // want "result of span creation is discarded"
	// t is never finished here, so nothing can end the root span.
}

// -------- compliant shapes --------

func deferEnd() error {
	sp := obs.StartSpan("execute")
	defer sp.End()
	return work()
}

func endBeforeErrorReturn() error {
	sp := obs.StartSpan("phase")
	err := work()
	sp.End()
	if err != nil {
		return err
	}
	return nil
}

// Trace.Finish ends the root span it handed out, so finishing the
// trace discharges the span obligation by provenance.
func provenanceFinish(tr *obs.Tracer) {
	t := tr.Start("query", 2)
	root := t.StartSpan("request")
	root.StartChild("admission").End()
	t.Finish("ok")
}

// obs.EndQuery finishes the trace it is given, so it discharges the
// root span by provenance as Trace.Finish does — also for a root span
// whose result was dropped.
func provenanceEndQuery(tr *obs.Tracer) {
	t := tr.Start("query", 3)
	root := t.StartSpan("request")
	root.StartChild("admission").End()
	obs.EndQuery(t, "ok", tr, nil, nil)
}

func droppedRootEndQuery(tr *obs.Tracer, t *obs.Trace) {
	t.StartSpan("request")
	obs.EndQuery(t, "ok", tr, nil, nil)
}

// Ending some other trace leaves this trace's root span open.
func endQueryOtherTrace(tr *obs.Tracer, other *obs.Trace, sink func(*obs.Trace)) {
	t := tr.Start("query", 4)
	root := t.StartSpan("request") // want "span/trace is not ended on every path"
	root.StartChild("admission").End()
	obs.EndQuery(other, "ok", tr, nil, nil)
	sink(t)
}

// The nil-guarded fallback reassigns the same variable; both creations
// share the one End.
func nilGuardFallback(t *obs.Trace) {
	root := t.StartSpan("query")
	if root == nil {
		root = obs.StartSpan("query")
	}
	root.End()
}

func handedOff(sink func(*obs.Span)) {
	sp := obs.StartSpan("handoff")
	sink(sp) // the callee owns the span now
}

func returned() *obs.Span {
	sp := obs.StartSpan("caller-owned")
	return sp
}

type holder struct{ sp *obs.Span }

func stored(h *holder) {
	sp := obs.StartSpan("stored")
	h.sp = sp
}

func captured() func() {
	sp := obs.StartSpan("deferred-elsewhere")
	return func() { sp.End() }
}

// Span.Record returns an already-ended child; it is not a creation.
func recorded(root *obs.Span) {
	root.Record("cached", time.Now(), 0)
}
