package obs

import (
	"slices"
	"sync"
)

// defaultTraceCap bounds DefaultTraces and any store constructed with
// a non-positive capacity.
const defaultTraceCap = 256

// ring is a fixed-capacity buffer of finished traces, allocated on the
// first push: a push at capacity evicts the oldest trace. Its owner
// locks around it.
type ring struct {
	buf  []*Trace
	next int
	full bool
}

// push appends t and returns the trace it evicted (nil while the ring
// is filling).
func (r *ring) push(capacity int, t *Trace) (evicted *Trace) {
	if r.buf == nil {
		r.buf = make([]*Trace, capacity)
	}
	evicted = r.buf[r.next]
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	return evicted
}

// list returns the traces oldest-first.
func (r *ring) list() []*Trace {
	var out []*Trace
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// TraceStore is a bounded ring buffer of finished traces: when full,
// adding a trace evicts the oldest one. Traces must be Finished (and
// thereafter immutable) before they are added; readers get them
// without copying. Safe for concurrent use; all methods no-op on a
// nil receiver. Construct with NewTraceStore.
type TraceStore struct {
	mu   sync.Mutex
	cap  int
	ring ring
	byID map[string]*Trace
}

// NewTraceStore returns an empty store retaining at most capacity
// traces (<= 0 selects the default of 256).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &TraceStore{cap: capacity}
}

// DefaultTraces is the process-wide trace store, the one the debug
// endpoint serves unless a server installs its own.
var DefaultTraces = NewTraceStore(defaultTraceCap)

// Add retains a finished trace, evicting the oldest when at capacity.
func (s *TraceStore) Add(t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byID == nil {
		if s.cap <= 0 {
			s.cap = defaultTraceCap
		}
		s.byID = make(map[string]*Trace, s.cap)
	}
	if old := s.ring.push(s.cap, t); old != nil {
		delete(s.byID, old.ID())
	}
	s.byID[t.ID()] = t
}

// Get returns the retained trace with the given id, or nil.
func (s *TraceStore) Get(id string) *Trace {
	if s == nil || id == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// List returns the retained traces newest-first.
func (s *TraceStore) List() []*Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := s.ring.list()
	s.mu.Unlock()
	slices.Reverse(out)
	return out
}

// Len returns the number of retained traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring.full {
		return len(s.ring.buf)
	}
	return s.ring.next
}

// Cap returns the store capacity.
func (s *TraceStore) Cap() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cap
}
