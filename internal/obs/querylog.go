package obs

import "sync"

const (
	recentRingCap = 128
	slowRingCap   = 64
)

// QueryLog is a pair of fixed-size rings over finished query traces:
// every query lands in the recent ring, and a trace marked slow (by
// its session's SET SLOW_QUERY_MS) also lands in the slow ring. The
// trace is the query's only record: /queries reads op, start,
// duration, rows, status, id and error text off it. Safe for
// concurrent use; all methods no-op on a nil receiver.
type QueryLog struct {
	mu     sync.Mutex
	recent ring
	slow   ring
}

// NewQueryLog returns an empty log.
func NewQueryLog() *QueryLog { return &QueryLog{} }

// DefaultQueries is the process-wide query log, the one the debug
// endpoint serves unless a server installs its own.
var DefaultQueries = NewQueryLog()

// EndQuery ends one query: it finishes t with status, retains it in ts
// when tr keeps it, and files it in l. Whoever owns a query's trace —
// the engine when it started the trace, the server otherwise — calls
// it exactly once, so every query has one record.
func EndQuery(t *Trace, status string, tr *Tracer, ts *TraceStore, l *QueryLog) {
	t.Finish(status)
	if tr.Keep(t) {
		ts.Add(t)
	}
	l.Record(t)
}

// Record files one finished trace. Callers go through EndQuery.
func (l *QueryLog) Record(t *Trace) {
	if l == nil || t == nil {
		return
	}
	slow := t.Slow()
	l.mu.Lock()
	l.recent.push(recentRingCap, t)
	if slow {
		l.slow.push(slowRingCap, t)
	}
	l.mu.Unlock()
}

// Recent returns the retained recent queries, oldest first.
func (l *QueryLog) Recent() []*Trace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recent.list()
}

// Slow returns the retained slow queries, oldest first.
func (l *QueryLog) Slow() []*Trace {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.slow.list()
}
