// Wire protocol: newline-delimited JSON over a byte stream (TCP in
// production, net.Pipe in tests). The client sends one Request object
// per line; the server answers each with exactly one Response line, in
// order. The connection is a session: per-session state (SET
// PARALLELISM, SET SLOW_QUERY_MS, prepared statements) lives exactly
// as long as the connection.
//
//	→ {"id":1,"op":"query","query":"select pid from product limit 2"}
//	← {"id":1,"ok":true,"columns":["pid"],"rows":[["fd0"],["fd1"]],"rows_total":2,"elapsed_ms":0.21}
//	→ {"id":2,"op":"prepare","name":"by_price","query":"select pid from product where price >= $1"}
//	← {"id":2,"ok":true}
//	→ {"id":3,"op":"exec","name":"by_price","args":[80]}
//	← {"id":3,"ok":true,"columns":["pid"],...}
//
// A shed request fails with code "busy"; everything else that goes
// wrong fails with code "error". On connect the server sends one
// banner line (code "hello") carrying the session id.
package server

import (
	"fmt"
	"strconv"
	"strings"

	"semjoin/internal/rel"
)

// Request ops.
const (
	// OpQuery executes req.Query (any gSQL statement, including SET,
	// SHOW METRICS, SHOW SESSION, EXPLAIN [ANALYZE]).
	OpQuery = "query"
	// OpPrepare stores req.Query under req.Name with $1..$n
	// placeholders for later OpExec.
	OpPrepare = "prepare"
	// OpExec binds req.Args into the prepared statement req.Name and
	// executes it.
	OpExec = "exec"
	// OpIngest applies a durable update batch to the WAL-backed store
	// named req.Base: req.Kind selects the stream ("graph" applies
	// req.Updates as a graph delta, "relation" replaces the base
	// relation's contents with req.Rows, "keywords" re-extracts for
	// req.Keywords). The store must have been opened first (gSQL OPEN,
	// or the server's -data-dir flag). The response carries the WAL
	// sequence number the batch was logged at.
	OpIngest = "ingest"
	// OpPing answers ok without touching the engine (liveness probe;
	// not subject to admission control).
	OpPing = "ping"
	// OpClose ends the session; the server answers ok and closes the
	// connection.
	OpClose = "close"
)

// Request is one client message.
type Request struct {
	// ID is echoed verbatim on the response so clients can match
	// pipelined requests; optional.
	ID int64 `json:"id,omitempty"`
	// Op is one of the Op* constants.
	Op string `json:"op"`
	// Query is the statement text (OpQuery, OpPrepare).
	Query string `json:"query,omitempty"`
	// Name identifies a prepared statement (OpPrepare, OpExec).
	Name string `json:"name,omitempty"`
	// Args bind $1..$n in a prepared statement (OpExec): JSON strings,
	// numbers and booleans.
	Args []any `json:"args,omitempty"`
	// TraceID optionally names the trace of this request (OpQuery,
	// OpExec): the server adopts the id (sanitized: at most 64 chars
	// of [0-9A-Za-z_-]) and always keeps the trace, so a client can
	// follow its own request through /traces/<id>. Empty lets the
	// server assign one.
	TraceID string `json:"trace_id,omitempty"`
	// Base names the durable store to apply an OpIngest batch to.
	Base string `json:"base,omitempty"`
	// Kind selects the OpIngest update stream: "graph", "relation" or
	// "keywords".
	Kind string `json:"kind,omitempty"`
	// Updates is the graph delta for Kind "graph".
	Updates []IngestUpdate `json:"updates,omitempty"`
	// Rows is the full replacement contents of the base relation for
	// Kind "relation", rendered per attribute of the base's schema.
	Rows [][]string `json:"rows,omitempty"`
	// Keywords is the new extraction keyword set for Kind "keywords".
	Keywords []string `json:"keywords,omitempty"`
}

// IngestUpdate is one wire-encoded graph update. Op is one of
// "insert_edge", "delete_edge" (From, Label, To), "insert_vertex"
// (Label, Type) or "delete_vertex" (From).
type IngestUpdate struct {
	Op    string `json:"op"`
	From  int64  `json:"from,omitempty"`
	To    int64  `json:"to,omitempty"`
	Label string `json:"label,omitempty"`
	Type  string `json:"type,omitempty"`
}

// Response is one server message.
type Response struct {
	ID int64 `json:"id,omitempty"`
	OK bool  `json:"ok"`
	// Code classifies non-data responses: "hello" on the connection
	// banner, "busy" on admission rejection, "error" on any other
	// failure, empty on success.
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
	// Session is the server-assigned session id (banner only).
	Session int64 `json:"session,omitempty"`
	// Columns and Rows carry a result relation; every value is
	// rendered as its display string.
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	// RowsTotal is len(Rows) — kept explicit so clients need not
	// rebuild it and truncating proxies stay honest.
	RowsTotal int `json:"rows_total,omitempty"`
	// ElapsedMS is the server-side wall time of the statement.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Seq is the WAL sequence number an OpIngest batch was logged at:
	// by the time the client reads it, every update in the batch is
	// durable to the store's sync policy.
	Seq uint64 `json:"seq,omitempty"`
	// TraceID identifies the server-side trace of this request (query
	// and exec responses, successes and failures alike). Whether the
	// trace was retained for /traces/<id> depends on sampling; shed
	// requests are always retained.
	TraceID string `json:"trace_id,omitempty"`
}

// encodeRelation renders a result relation into wire columns and rows.
func encodeRelation(r *rel.Relation) (cols []string, rows [][]string) {
	if r == nil || r.Schema == nil {
		return nil, nil
	}
	cols = make([]string, len(r.Schema.Attrs))
	for i, a := range r.Schema.Attrs {
		cols[i] = a.Name
	}
	rows = make([][]string, len(r.Tuples))
	for i, t := range r.Tuples {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = v.String()
		}
		rows[i] = row
	}
	return cols, rows
}

// bindParams substitutes $1..$n placeholders in a prepared statement
// with literal renderings of args. Placeholders inside single-quoted
// string literals are left alone. Every argument must be used at
// least once and every placeholder must have an argument — partial
// binds are client bugs worth failing loudly on.
func bindParams(query string, args []any) (string, error) {
	var b strings.Builder
	b.Grow(len(query) + 16*len(args))
	used := make([]bool, len(args))
	inString := false
	for i := 0; i < len(query); i++ {
		ch := query[i]
		if inString {
			b.WriteByte(ch)
			if ch == '\'' {
				// '' is an escaped quote inside the literal.
				if i+1 < len(query) && query[i+1] == '\'' {
					b.WriteByte('\'')
					i++
				} else {
					inString = false
				}
			}
			continue
		}
		switch {
		case ch == '\'':
			inString = true
			b.WriteByte(ch)
		case ch == '$' && i+1 < len(query) && query[i+1] >= '0' && query[i+1] <= '9':
			j := i + 1
			for j < len(query) && query[j] >= '0' && query[j] <= '9' {
				j++
			}
			n, err := strconv.Atoi(query[i+1 : j])
			if err != nil || n < 1 || n > len(args) {
				return "", fmt.Errorf("server: placeholder %s has no argument (%d supplied)", query[i:j], len(args))
			}
			lit, err := renderLiteral(args[n-1])
			if err != nil {
				return "", fmt.Errorf("server: argument %d: %w", n, err)
			}
			b.WriteString(lit)
			used[n-1] = true
			i = j - 1
		default:
			b.WriteByte(ch)
		}
	}
	if inString {
		return "", fmt.Errorf("server: unterminated string literal in prepared statement")
	}
	for i, u := range used {
		if !u {
			return "", fmt.Errorf("server: argument %d is not referenced by any placeholder", i+1)
		}
	}
	return b.String(), nil
}

// renderLiteral renders one bound argument as a gSQL literal: strings
// become single-quoted literals with ” escaping, numbers stay
// numeric (JSON decodes them as float64; integral values render
// without a fraction so they keep comparing as ints).
func renderLiteral(arg any) (string, error) {
	switch v := arg.(type) {
	case string:
		return "'" + strings.ReplaceAll(v, "'", "''") + "'", nil
	case float64:
		if v == float64(int64(v)) {
			return strconv.FormatInt(int64(v), 10), nil
		}
		return strconv.FormatFloat(v, 'g', -1, 64), nil
	case int:
		return strconv.Itoa(v), nil
	case int64:
		return strconv.FormatInt(v, 10), nil
	case bool:
		if v {
			return "'true'", nil
		}
		return "'false'", nil
	case nil:
		return "", fmt.Errorf("null is not bindable (gSQL has no NULL literal)")
	default:
		return "", fmt.Errorf("unbindable argument type %T", arg)
	}
}
