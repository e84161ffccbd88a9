// Package server promotes the gsql engine into a long-running
// multi-session network frontend. Many concurrent sessions share one
// catalog (relations, graph, materialisation, gL cache); each session
// owns a private gsql.Engine, so SET PARALLELISM / SET SLOW_QUERY_MS
// and prepared statements are session-scoped and die with the
// connection. Every request passes the admission
// Controller first, so overload degrades into typed "server busy"
// rejections instead of goroutine pile-ups.
//
// The lifecycle of one connection:
//
//	accept → session cap check → banner (code "hello", session id)
//	→ request loop (one Response per Request, in order)
//	→ disconnect or OpClose → in-flight query cancelled → teardown
//
// A client that disconnects mid-query cancels that query's context:
// the morsel-driven worker pools observe cancellation and wind down,
// leaving no stranded goroutines (the isolation tests assert this
// under -race).
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"semjoin/internal/gsql"
	"semjoin/internal/obs"
)

// maxLine is the longest request line (1 MiB) the server accepts —
// the same bound the interactive shell places on stdin.
const maxLine = 1 << 20

// maxPrepared caps the prepared statements one session may hold.
const maxPrepared = 256

// Config wires a server to its engine machinery.
type Config struct {
	// Cat is the shared catalog every session queries. Required.
	Cat *gsql.Catalog
	// Mode is the semantic-join strategy mode sessions start in.
	Mode gsql.Mode
	// Reg receives all server and engine metrics; nil means
	// obs.Default. SHOW METRICS inside any session reads this
	// registry, so admission counters are visible in-band.
	Reg *obs.Registry
	// Limits bounds admission (zero fields default; see Limits).
	Limits Limits
	// Signals overrides the admission load source (tests); nil reads
	// the gauges the controller itself publishes in Reg.
	Signals Signals
	// Tracer samples query traces; nil means obs.DefaultTracer (keep
	// every trace — the bounded store caps memory).
	Tracer *obs.Tracer
	// Traces retains kept traces for /traces and SHOW TRACES; nil
	// means obs.DefaultTraces.
	Traces *obs.TraceStore
	// Queries is the server-wide query log: every request's finished
	// trace lands here once — including admission sheds, with status
	// "shed" — so /queries reconciles with server_shed_total. A trace
	// counts as slow by its session's SET SLOW_QUERY_MS. Nil means
	// obs.DefaultQueries.
	Queries *obs.QueryLog
	// Log receives structured JSON records (session lifecycle, shed
	// decisions with reasons and trace ids, query failures); nil
	// disables server logging.
	Log *obs.Logger
}

// Server accepts connections and runs one session per connection.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	ctl     *Controller
	tracer  *obs.Tracer
	traces  *obs.TraceStore
	queries *obs.QueryLog
	log     *obs.Logger

	ctx    context.Context
	cancel context.CancelFunc

	wg          sync.WaitGroup
	mu          sync.Mutex
	conns       map[net.Conn]struct{}
	sessions    atomic.Int64
	nextSession atomic.Int64
	inShutdown  atomic.Bool
}

// New builds a server from cfg. Call Serve (or ServeConn) to run it
// and Shutdown to stop it.
func New(cfg Config) (*Server, error) {
	if cfg.Cat == nil {
		return nil, fmt.Errorf("server: Config.Cat is required")
	}
	reg := cfg.Reg
	if reg == nil {
		reg = obs.Default
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.DefaultTracer
	}
	traces := cfg.Traces
	if traces == nil {
		traces = obs.DefaultTraces
	}
	queries := cfg.Queries
	if queries == nil {
		queries = obs.DefaultQueries
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		cfg:     cfg,
		reg:     reg,
		ctl:     NewController(cfg.Limits, reg, cfg.Signals),
		tracer:  tracer,
		traces:  traces,
		queries: queries,
		log:     cfg.Log,
		ctx:     ctx,
		cancel:  cancel,
		conns:   map[net.Conn]struct{}{},
	}, nil
}

// Controller exposes the admission gate (tests drive it directly).
func (s *Server) Controller() *Controller { return s.ctl }

// Sessions reports the number of live sessions.
func (s *Server) Sessions() int64 { return s.sessions.Load() }

// Serve accepts connections on ln until Shutdown closes it. It
// returns nil after a Shutdown-initiated stop and the accept error
// otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.inShutdown.Load() {
		s.mu.Unlock()
		return fmt.Errorf("server: already shut down")
	}
	s.mu.Unlock()
	// Close the listener when the server context dies so Accept
	// unblocks; guarded by a handle so Serve can also exit on its own
	// accept errors.
	stop := context.AfterFunc(s.ctx, func() { _ = ln.Close() })
	defer stop()
	for {
		if s.ctx.Err() != nil {
			return nil
		}
		conn, err := ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil {
				return nil
			}
			return err
		}
		s.startConn(conn)
	}
}

// ServeConn runs one session over an already-established connection
// (net.Pipe in tests, an in-process transport in gsqlload's self-test
// mode). It returns immediately; the session runs until the peer
// disconnects or the server shuts down.
func (s *Server) ServeConn(conn net.Conn) {
	s.startConn(conn)
}

// startConn applies the session cap and launches the session
// goroutine.
func (s *Server) startConn(conn net.Conn) {
	if s.inShutdown.Load() {
		_ = conn.Close()
		return
	}
	if s.sessions.Load() >= int64(s.ctl.Limits().MaxSessions) {
		busy := s.ctl.shed("sessions")
		s.log.Warn("connection shed", "reason", "sessions",
			"sessions_active", s.sessions.Load(), "remote", remoteAddr(conn))
		// The rejection banner is written off the accept path (and
		// bounded by a deadline): a peer that never reads must not be
		// able to stall the accept loop — or, over a synchronous pipe,
		// deadlock the dialer.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			_ = json.NewEncoder(conn).Encode(Response{OK: false, Code: "busy", Error: busy.Error()})
			_ = conn.Close()
		}()
		return
	}
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.sessions.Add(1)
	s.reg.Counter("server_sessions_total").Inc()
	s.reg.Gauge("server_sessions_active").Add(1)
	s.wg.Add(1)
	go s.runSession(conn)
}

// Shutdown stops the server: no new connections, every session's
// context cancelled (aborting in-flight queries), every connection
// closed. It waits for session goroutines to finish or ctx to expire.
func (s *Server) Shutdown(ctx context.Context) error {
	s.inShutdown.Store(true)
	s.cancel()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown wait: %w", ctx.Err())
	}
}

// remoteAddr renders the peer address for log records ("" when the
// transport has none, e.g. net.Pipe).
func remoteAddr(conn net.Conn) string {
	if addr := conn.RemoteAddr(); addr != nil {
		return addr.String()
	}
	return ""
}

// session is the per-connection state: a private engine over the
// shared catalog plus the prepared-statement namespace.
type session struct {
	id       int64
	eng      *gsql.Engine
	ctl      *Controller
	reg      *obs.Registry
	tracer   *obs.Tracer
	traces   *obs.TraceStore
	queries  *obs.QueryLog
	log      *obs.Logger
	prepared map[string]string
}

// runSession is the lifetime of one connection: banner, request loop,
// teardown. The reader goroutine feeds decoded requests through a
// channel and cancels the session context when the peer goes away, so
// a mid-query disconnect aborts the query rather than letting it run
// to completion for nobody.
func (s *Server) runSession(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.sessions.Add(-1)
		s.reg.Gauge("server_sessions_active").Add(-1)
	}()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	id := s.nextSession.Add(1)
	slog := s.log.With("session", id)
	eng := gsql.NewEngine(s.cfg.Cat)
	eng.Mode = s.cfg.Mode
	eng.Obs = s.reg
	eng.Tracer = s.tracer
	eng.Traces = s.traces
	eng.Log = slog
	ss := &session{
		id:       id,
		eng:      eng,
		ctl:      s.ctl,
		reg:      s.reg,
		tracer:   s.tracer,
		traces:   s.traces,
		queries:  s.queries,
		log:      slog,
		prepared: map[string]string{},
	}
	slog.Debug("session start", "remote", remoteAddr(conn))
	defer slog.Debug("session end")
	ctx = obs.ContextWithLogger(ctx, slog)

	enc := json.NewEncoder(conn)
	if err := enc.Encode(Response{OK: true, Code: "hello", Session: ss.id}); err != nil {
		return
	}

	reqs := make(chan inbound)
	go s.readLoop(ctx, cancel, conn, reqs)
	for {
		select {
		case <-ctx.Done():
			return
		case in, ok := <-reqs:
			if !ok {
				return
			}
			resp := ss.handle(ctx, in)
			if err := enc.Encode(resp); err != nil {
				cancel()
				return
			}
			if in.req.Op == OpClose {
				return
			}
		}
	}
}

// inbound is one decoded request plus its wire-level timing: recvAt
// is the instant the request line came off the wire (query traces
// start here, so queue time inside the session loop is attributed to
// the request, not hidden) and readDur is the time spent decoding the
// line into a Request — the "wire_read" span of the trace.
type inbound struct {
	req     Request
	recvAt  time.Time
	readDur time.Duration
}

// readLoop decodes request lines off conn into reqs. Any read or
// decode-framing failure (EOF, reset, oversized line) means the peer
// is gone or broken: the loop cancels the session context — aborting
// whatever query is running — and closes reqs.
func (s *Server) readLoop(ctx context.Context, cancel context.CancelFunc, conn net.Conn, reqs chan<- inbound) {
	defer close(reqs)
	defer cancel()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	for sc.Scan() {
		if ctx.Err() != nil {
			return
		}
		recvAt := time.Now()
		line := sc.Bytes()
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			// Malformed framing is unrecoverable on a line protocol —
			// respond via the request channel so the writer stays the
			// only goroutine touching conn.
			req = Request{Op: "malformed", Query: err.Error()}
		}
		in := inbound{req: req, recvAt: recvAt, readDur: time.Since(recvAt)}
		select {
		case reqs <- in:
		case <-ctx.Done():
			return
		}
		if req.Op == "malformed" || req.Op == OpClose {
			return
		}
	}
}

// handle dispatches one request to its op handler.
func (ss *session) handle(ctx context.Context, in inbound) Response {
	req := in.req
	switch req.Op {
	case OpPing:
		return Response{ID: req.ID, OK: true}
	case OpClose:
		return Response{ID: req.ID, OK: true}
	case OpPrepare:
		return ss.prepare(req)
	case OpExec:
		tmpl, ok := ss.prepared[req.Name]
		if !ok {
			return errResp(req.ID, "error", fmt.Errorf("server: unknown prepared statement %q", req.Name))
		}
		q, err := bindParams(tmpl, req.Args)
		if err != nil {
			return errResp(req.ID, "error", err)
		}
		return ss.runQuery(ctx, in, q)
	case OpQuery:
		return ss.runQuery(ctx, in, req.Query)
	case OpIngest:
		return ss.ingest(ctx, in)
	case "malformed":
		ss.log.Warn("malformed request", "err", req.Query)
		return errResp(req.ID, "error", fmt.Errorf("server: malformed request: %s", req.Query))
	default:
		return errResp(req.ID, "error", fmt.Errorf("server: unknown op %q", req.Op))
	}
}

// prepare validates and stores a statement template.
func (ss *session) prepare(req Request) Response {
	if req.Name == "" {
		return errResp(req.ID, "error", fmt.Errorf("server: prepare needs a name"))
	}
	if req.Query == "" {
		return errResp(req.ID, "error", fmt.Errorf("server: prepare needs a query"))
	}
	if _, exists := ss.prepared[req.Name]; !exists && len(ss.prepared) >= maxPrepared {
		return errResp(req.ID, "error", fmt.Errorf("server: too many prepared statements (max %d)", maxPrepared))
	}
	ss.prepared[req.Name] = req.Query
	return Response{ID: req.ID, OK: true}
}

// runQuery traces, admits and executes q on the session engine and
// encodes the result. The trace starts at the instant the request
// came off the wire and owns the whole server-side path: a completed
// wire_read child, an admission child around the controller, then the
// engine's query/parse/plan/execute subtree via the context. Every
// response — success, error and shed alike — carries the trace id.
func (ss *session) runQuery(ctx context.Context, in inbound, q string) Response {
	id := in.req.ID
	tr := ss.tracer.Start(q, ss.id)
	tr.SetStart(in.recvAt)
	if wireID := sanitizeTraceID(in.req.TraceID); wireID != "" {
		// Client-chosen id: propagate it and force the trace kept so the
		// client can always fetch what it asked to follow.
		tr.SetID(wireID)
	}
	root := tr.StartSpan("request")
	root.Record("wire_read", in.recvAt, in.readDur)

	asp := root.StartChild("admission")
	release, err := ss.ctl.Admit(ctx)
	asp.End()
	if err != nil {
		busy := errors.Is(err, ErrServerBusy)
		code, status := "error", "error"
		if busy {
			code, status = "busy", "shed"
			// Shed traces are always retained: the whole point of shedding
			// visibility is finding the requests that never ran.
			tr.SetForced()
		}
		tr.SetResult(0, err)
		obs.EndQuery(tr, status, ss.tracer, ss.traces, ss.queries)
		ss.log.Warn("request shed", "reason", shedReason(err),
			"trace_id", tr.ID(), "query", truncateQuery(q))
		return errRespTraced(id, code, err, tr.ID())
	}
	defer release()
	ss.reg.Counter("server_requests_total").Inc()

	qctx := obs.ContextWithTrace(ctx, tr)
	start := time.Now()
	out, err := ss.eng.QueryContext(qctx, q)
	elapsed := time.Since(start)
	ss.reg.Histogram("server_request_seconds", nil).Observe(elapsed.Seconds())

	status, n := "ok", 0
	if err != nil {
		status = "error"
	} else if out != nil {
		n = out.Len()
	}
	tr.SetResult(n, err)
	obs.EndQuery(tr, status, ss.tracer, ss.traces, ss.queries)
	if err != nil {
		return errRespTraced(id, "error", err, tr.ID())
	}
	cols, rows := encodeRelation(out)
	return Response{
		ID: id, OK: true,
		Columns: cols, Rows: rows, RowsTotal: len(rows),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		TraceID:   tr.ID(),
	}
}

// shedReason extracts the admission reason from a *BusyError ("" for
// other errors, e.g. context cancellation).
func shedReason(err error) string {
	var busy *BusyError
	if errors.As(err, &busy) {
		return busy.Reason
	}
	return ""
}

// truncateQuery bounds statement text in log records.
func truncateQuery(q string) string {
	const max = 200
	if len(q) > max {
		return q[:max] + "…"
	}
	return q
}

// sanitizeTraceID accepts a client-supplied trace id only when it is
// short and plain (hex-ish identifier charset): wire input must not
// be able to inject log fields or unbounded map keys.
func sanitizeTraceID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return ""
		}
	}
	return id
}

// errResp builds a failure response.
func errResp(id int64, code string, err error) Response {
	return Response{ID: id, OK: false, Code: code, Error: err.Error()}
}

// errRespTraced builds a failure response carrying the trace id.
func errRespTraced(id int64, code string, err error, traceID string) Response {
	r := errResp(id, code, err)
	r.TraceID = traceID
	return r
}
