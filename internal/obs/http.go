package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// queriesPayload is the JSON shape of the /queries endpoint.
type queriesPayload struct {
	Recent []queryJSON    `json:"recent"`
	Slow   []queryJSON    `json:"slow"`
	Counts map[string]int `json:"counts"`
}

type queryJSON struct {
	Query      string    `json:"query"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Rows       int       `json:"rows"`
	Status     string    `json:"status"`
	TraceID    string    `json:"trace_id,omitempty"`
	Err        string    `json:"err,omitempty"`
}

func toJSON(traces []*Trace) []queryJSON {
	out := make([]queryJSON, len(traces))
	for i, t := range traces {
		rows, errText := t.Result()
		out[i] = queryJSON{
			Query: t.Op(), Start: t.Start(),
			DurationMS: float64(t.Duration()) / float64(time.Millisecond),
			Rows:       rows, Status: t.Status(),
			TraceID: t.ID(), Err: errText,
		}
	}
	return out
}

// Handler serves the live introspection endpoints over r, l and ts:
//
//	/metrics       Prometheus text exposition of every registered series
//	/queries       recent + slow queries as JSON (counts broken down by status)
//	/traces        retained traces newest-first (?min_ms=, ?op=, ?limit=)
//	/traces/<id>   one trace (?format=json|chrome|text)
//
// Any argument may be nil; the corresponding endpoint then serves an
// empty document rather than failing.
func Handler(r *Registry, l *QueryLog, ts *TraceStore) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.PrometheusText()))
	})
	mux.HandleFunc("/queries", func(w http.ResponseWriter, _ *http.Request) {
		recent, slow := l.Recent(), l.Slow()
		counts := map[string]int{"recent": len(recent), "slow": len(slow)}
		for _, t := range recent {
			counts[t.Status()]++
		}
		payload := queriesPayload{
			Recent: toJSON(recent),
			Slow:   toJSON(slow),
			Counts: counts,
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(payload)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, req *http.Request) {
		serveTraceList(w, req, ts)
	})
	mux.HandleFunc("/traces/", func(w http.ResponseWriter, req *http.Request) {
		serveTraceDetail(w, req, ts)
	})
	return mux
}

// tracesPayload is the JSON shape of the /traces listing.
type tracesPayload struct {
	Count    int                `json:"count"`
	Retained int                `json:"retained"`
	Capacity int                `json:"capacity"`
	Traces   []traceSummaryJSON `json:"traces"`
}

func serveTraceList(w http.ResponseWriter, req *http.Request, ts *TraceStore) {
	q := req.URL.Query()
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			http.Error(w, "bad min_ms: want a non-negative number of milliseconds", http.StatusBadRequest)
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	opFilter := strings.ToLower(q.Get("op"))
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad limit: want a non-negative integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	all := ts.List()
	summaries := []traceSummaryJSON{}
	for _, t := range all {
		if minDur > 0 && t.Duration() < minDur {
			continue
		}
		if opFilter != "" && !strings.Contains(strings.ToLower(t.Op()), opFilter) {
			continue
		}
		summaries = append(summaries, traceSummary(t))
		if limit > 0 && len(summaries) >= limit {
			break
		}
	}
	payload := tracesPayload{
		Count:    len(summaries),
		Retained: ts.Len(),
		Capacity: ts.Cap(),
		Traces:   summaries,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(payload)
}

func serveTraceDetail(w http.ResponseWriter, req *http.Request, ts *TraceStore) {
	id := strings.TrimPrefix(req.URL.Path, "/traces/")
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, req)
		return
	}
	t := ts.Get(id)
	if t == nil {
		http.Error(w, "trace "+id+" not found (evicted or never kept — raise -trace-sample or use TRACE <query>)", http.StatusNotFound)
		return
	}
	switch format := req.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(TraceJSON(t))
		_, _ = w.Write([]byte("\n"))
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(TraceChromeJSON(t))
		_, _ = w.Write([]byte("\n"))
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(TraceText(t)))
	default:
		http.Error(w, "bad format "+format+": want json, chrome or text", http.StatusBadRequest)
	}
}

// publishOnce guards the expvar registration: expvar panics on
// duplicate names, and DebugMux may be built more than once in tests.
var publishOnce sync.Once

// DebugMux is the full debug surface for -debug-addr: Handler's
// /metrics, /queries and /traces, net/http/pprof under /debug/pprof/,
// and expvar under /debug/vars with the registry snapshot published
// as the "semjoin_metrics" var. The first call wires r into expvar;
// later calls reuse that registration.
func DebugMux(r *Registry, l *QueryLog, ts *TraceStore) *http.ServeMux {
	publishOnce.Do(func() {
		expvar.Publish("semjoin_metrics", expvar.Func(func() any { return r.Snapshot() }))
	})
	h := Handler(r, l, ts)
	mux := http.NewServeMux()
	mux.Handle("/metrics", h)
	mux.Handle("/queries", h)
	mux.Handle("/traces", h)
	mux.Handle("/traces/", h)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(`<html><body><h1>semjoin debug</h1><ul>
<li><a href="/metrics">/metrics</a> (Prometheus text)</li>
<li><a href="/queries">/queries</a> (recent + slow queries)</li>
<li><a href="/traces">/traces</a> (retained query traces; /traces/&lt;id&gt;?format=json|chrome|text)</li>
<li><a href="/debug/vars">/debug/vars</a> (expvar)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a></li>
</ul></body></html>`))
	})
	return mux
}
