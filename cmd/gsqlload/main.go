// Command gsqlload is a load generator for the gsql network server.
// It drives many concurrent client sessions with seeded mixed gSQL
// workloads (the difftest generator's query families: predicated
// selects, order by/limit/distinct, aggregates, cross joins, e-joins
// and l-joins, plus session SETs and prepared statements) and reports
// throughput, tail latency (p50/p95/p99) and error/shed rates.
//
// Two modes:
//
//	gsqlload -addr host:7483 -clients 200 -requests 50
//	    drive an already-running server (gsql -serve) over TCP
//
//	gsqlload -selftest -clients 1000 -requests 20
//	    boot an in-process server over a seeded fixture and drive it
//	    through synchronous pipes — no ports, no fd limits; the mode
//	    CI uses, and the one that proves N clients against one engine
//
// Exit status: 0 on a clean run; 1 when -fail-on-error / -fail-on-shed
// / leak detection (selftest) trip; 2 on usage or setup errors.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"semjoin/internal/core"
	"semjoin/internal/gsql"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/obs"
	"semjoin/internal/server"
	"semjoin/internal/wal"
)

func main() {
	addr := flag.String("addr", "", "server address to drive (host:port)")
	selftest := flag.Bool("selftest", false, "boot an in-process server over a seeded fixture and drive it")
	clients := flag.Int("clients", 64, "concurrent client sessions")
	requests := flag.Int("requests", 20, "requests per client")
	seed := flag.Int64("seed", 7, "workload seed (fixture + per-client query streams)")
	maxConcurrent := flag.Int("max-concurrent", 0, "selftest server: queries executing at once (0 = 2×GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "selftest server: queue depth before shedding (0 = 2×clients)")
	queueWaitMS := flag.Int("queue-wait-ms", 30000, "selftest server: longest queue wait before shedding")
	jsonOut := flag.Bool("json", false, "emit the summary as JSON")
	failOnError := flag.Bool("fail-on-error", false, "exit 1 when any request fails with a non-busy error")
	failOnShed := flag.Bool("fail-on-shed", false, "exit 1 when any request is shed (busy)")
	checkLeaks := flag.Bool("check-leaks", false, "selftest: exit 1 when goroutines leak after shutdown")
	traceSlowest := flag.Int("trace-slowest", 0, "after the run, fetch and print the span trees of the N slowest requests")
	debugURL := flag.String("debug-url", "", "debug endpoint base URL (e.g. http://127.0.0.1:8077) for -trace-slowest fetches; selftest reads in-process when empty")
	ingestEvery := flag.Int("ingest-every", 0, "make every Nth request a durable ingest batch (0 = read-only workload); the target store must be open (gsql -data-dir, or automatic in selftest)")
	ingestBase := flag.String("ingest-base", "product", "durable store ingest batches target")
	flag.Parse()

	if (*addr == "") == !*selftest {
		fmt.Fprintln(os.Stderr, "gsqlload: exactly one of -addr or -selftest is required")
		os.Exit(2)
	}

	var dial func() (net.Conn, error)
	var shutdown func() error
	// Queries are generated against the selftest fixture's vocabulary
	// (the e-join attributes its seed extracted), else difftest's.
	vocab := difftest.Vocabulary
	baseGoroutines := runtime.NumGoroutine()
	if *selftest {
		fix, err := difftest.Build(*seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gsqlload: fixture:", err)
			os.Exit(2)
		}
		vocab = fix.Vocab
		if *ingestEvery > 0 {
			// Mixed read/update selftest: open the target store over an
			// in-memory filesystem so ingest requests have a WAL to hit.
			fix.Cat.DurableOpts = core.DurableOptions{Policy: wal.SyncBatch, FS: wal.NewMemFS()}
			if _, err := gsql.NewEngine(fix.Cat).Query(fmt.Sprintf("OPEN %s db", *ingestBase)); err != nil {
				fmt.Fprintln(os.Stderr, "gsqlload: open durable store:", err)
				os.Exit(2)
			}
		}
		mq := *maxQueue
		if mq == 0 {
			// Default the queue to absorb every client at once: the
			// low-load smoke asserts zero shed, so the queue must not
			// be the thing that sheds.
			mq = 2 * *clients
		}
		srv, err := server.New(server.Config{
			Cat: fix.Cat, Mode: gsql.ModeAuto, Reg: obs.NewRegistry(),
			Limits: server.Limits{
				MaxConcurrent: *maxConcurrent,
				MaxQueue:      mq,
				QueueWait:     time.Duration(*queueWaitMS) * time.Millisecond,
				MaxSessions:   2 * *clients,
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gsqlload:", err)
			os.Exit(2)
		}
		dial = func() (net.Conn, error) {
			cli, srvEnd := net.Pipe()
			srv.ServeConn(srvEnd)
			return cli, nil
		}
		shutdown = func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			return srv.Shutdown(ctx)
		}
	} else {
		dial = func() (net.Conn, error) { return net.Dial("tcp", *addr) }
		shutdown = func() error { return nil }
	}

	topN := *traceSlowest
	if topN <= 0 {
		topN = 3 // always surface a few IDs in the report, even without full trees
	}
	sum := run(dial, vocab, *clients, *requests, *seed, topN, *ingestEvery, *ingestBase)
	if *traceSlowest > 0 {
		// Fetch before shutdown: the selftest path reads the in-process
		// trace store, which outlives Shutdown, but a remote server may
		// not outlive the run script.
		attachTraceTrees(&sum, *debugURL, *selftest)
	}
	if err := shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "gsqlload: shutdown:", err)
		os.Exit(1)
	}
	leaked := 0
	if *selftest && *checkLeaks {
		leaked = settleGoroutines(baseGoroutines, 10*time.Second)
	}
	report(sum, leaked, *jsonOut)

	switch {
	case *failOnError && sum.Errors > 0:
		fmt.Fprintf(os.Stderr, "gsqlload: FAIL: %d request errors\n", sum.Errors)
		os.Exit(1)
	case *failOnShed && sum.Shed > 0:
		fmt.Fprintf(os.Stderr, "gsqlload: FAIL: %d requests shed\n", sum.Shed)
		os.Exit(1)
	case leaked > 0:
		fmt.Fprintf(os.Stderr, "gsqlload: FAIL: %d goroutines leaked after shutdown\n", leaked)
		os.Exit(1)
	}
}

// summary aggregates one run.
type summary struct {
	Clients    int        `json:"clients"`
	Requests   int        `json:"requests"`
	OK         int        `json:"ok"`
	Ingested   int        `json:"ingested,omitempty"`
	Errors     int        `json:"errors"`
	Shed       int        `json:"shed"`
	DialErrors int        `json:"dial_errors"`
	WallSec    float64    `json:"wall_sec"`
	Throughput float64    `json:"requests_per_sec"`
	P50MS      float64    `json:"p50_ms"`
	P95MS      float64    `json:"p95_ms"`
	P99MS      float64    `json:"p99_ms"`
	MaxMS      float64    `json:"max_ms"`
	FirstError string     `json:"first_error,omitempty"`
	Slowest    []reqTrace `json:"slowest_traces,omitempty"`
	ShedIDs    []string   `json:"shed_trace_ids,omitempty"`
}

// reqTrace identifies one traced request: enough to find it again on
// the server's /traces endpoint. Tree is filled by -trace-slowest.
type reqTrace struct {
	TraceID string  `json:"trace_id"`
	LatMS   float64 `json:"lat_ms"`
	Query   string  `json:"query,omitempty"`
	Tree    string  `json:"tree,omitempty"`
}

// clientResult is one session's tally.
type clientResult struct {
	lat        []time.Duration
	ok         int
	ingested   int
	errs       int
	shed       int
	dialErr    bool
	firstError string
	traced     []reqTrace
	shedIDs    []string
}

// run launches the client fleet and merges their tallies, keeping the
// topN slowest traced requests and up to a handful of shed trace IDs.
func run(dial func() (net.Conn, error), vocab difftest.Vocab, clients, requests int, seed int64, topN, ingestEvery int, ingestBase string) summary {
	results := make([]clientResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = driveClient(dial, vocab, seed+int64(i)*7919, requests, ingestEvery, ingestBase)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	sum := summary{Clients: clients, WallSec: wall.Seconds()}
	var all []time.Duration
	var traced []reqTrace
	for _, r := range results {
		sum.OK += r.ok
		sum.Ingested += r.ingested
		sum.Errors += r.errs
		sum.Shed += r.shed
		if r.dialErr {
			sum.DialErrors++
		}
		if sum.FirstError == "" {
			sum.FirstError = r.firstError
		}
		all = append(all, r.lat...)
		traced = append(traced, r.traced...)
		sum.ShedIDs = append(sum.ShedIDs, r.shedIDs...)
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i].LatMS > traced[j].LatMS })
	if len(traced) > topN {
		traced = traced[:topN]
	}
	sum.Slowest = traced
	if len(sum.ShedIDs) > 10 {
		sum.ShedIDs = sum.ShedIDs[:10]
	}
	sum.Requests = sum.OK + sum.Errors + sum.Shed
	if wall > 0 {
		sum.Throughput = float64(sum.Requests) / wall.Seconds()
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sum.P50MS = pctMS(all, 0.50)
	sum.P95MS = pctMS(all, 0.95)
	sum.P99MS = pctMS(all, 0.99)
	if n := len(all); n > 0 {
		sum.MaxMS = float64(all[n-1]) / float64(time.Millisecond)
	}
	return sum
}

// driveClient runs one session: dial, read the hello banner, then a
// seeded request stream. Every fourth client diverges its session
// state (SET PARALLELISM) to keep the per-session knobs hot under
// load, and every client exercises one prepared statement with a
// bound parameter.
func driveClient(dial func() (net.Conn, error), vocab difftest.Vocab, seed int64, requests int, ingestEvery int, ingestBase string) clientResult {
	var res clientResult
	conn, err := dial()
	if err != nil {
		res.dialErr = true
		res.firstError = err.Error()
		return res
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), 16<<20)

	var hello server.Response
	if !readResp(sc, &hello) || hello.Code != "hello" {
		res.dialErr = true
		res.firstError = "no hello banner"
		return res
	}

	rng := rand.New(rand.NewSource(seed))
	gen := difftest.NewGen(seed, vocab)
	roundTrip := func(req server.Request) (server.Response, bool) {
		var resp server.Response
		if err := enc.Encode(req); err != nil {
			res.firstError = err.Error()
			return resp, false
		}
		if !readResp(sc, &resp) {
			res.firstError = "connection dropped mid-response"
			return resp, false
		}
		return resp, true
	}
	tally := func(resp server.Response, lat time.Duration, query string) {
		switch {
		case resp.OK:
			res.ok++
			res.lat = append(res.lat, lat)
			if resp.TraceID != "" {
				res.traced = append(res.traced, reqTrace{
					TraceID: resp.TraceID,
					LatMS:   float64(lat) / float64(time.Millisecond),
					Query:   truncate(query, 80),
				})
			}
		case resp.Code == "busy":
			res.shed++
			if resp.TraceID != "" {
				res.shedIDs = append(res.shedIDs, resp.TraceID)
			}
		default:
			res.errs++
			if res.firstError == "" {
				res.firstError = resp.Error
			}
		}
	}

	if rng.Intn(4) == 0 {
		if resp, ok := roundTrip(server.Request{Op: server.OpQuery, Query: "set parallelism 2"}); ok {
			tally(resp, 0, "set parallelism 2")
		}
	}
	if resp, ok := roundTrip(server.Request{
		Op: server.OpPrepare, Name: "by_price",
		Query: "select pid, price from product where price >= $1",
	}); !ok || !resp.OK {
		res.errs++
		return res
	}

	for i := 0; i < requests; i++ {
		var req server.Request
		if ingestEvery > 0 && i%ingestEvery == ingestEvery-1 {
			// A small durable graph batch: fresh vertices always apply;
			// the edge between two low ids may no-op on a mutated graph,
			// which is exactly the tolerance real feeds need.
			req = server.Request{Op: server.OpIngest, Base: ingestBase, Kind: "graph",
				Updates: []server.IngestUpdate{
					{Op: "insert_vertex", Label: fmt.Sprintf("load %d-%d", seed, i), Type: "company"},
					{Op: "insert_edge", From: int64(rng.Intn(4)), To: int64(rng.Intn(4)), Label: "load_link"},
				}}
		} else if i%5 == 4 {
			req = server.Request{Op: server.OpExec, Name: "by_price", Args: []any{float64(60 + 10*rng.Intn(10))}}
		} else {
			req = server.Request{Op: server.OpQuery, Query: gen.Query()}
		}
		start := time.Now()
		resp, ok := roundTrip(req)
		if !ok {
			res.errs++
			return res
		}
		label := req.Query
		if req.Op == server.OpIngest {
			label = "ingest " + req.Kind
			if resp.OK {
				res.ingested++
			}
		}
		tally(resp, time.Since(start), label)
	}
	resp, ok := roundTrip(server.Request{Op: server.OpClose})
	_ = resp
	_ = ok
	return res
}

// attachTraceTrees fills in the span tree of each slowest-request
// entry. With -debug-url it fetches /traces/<id>?format=text from the
// server's debug endpoint; in selftest mode (no URL) it reads the
// in-process default trace store directly — same store the debug
// endpoint would serve. Missing traces (evicted, or sampled out at a
// low -trace-sample) are noted, not fatal.
func attachTraceTrees(sum *summary, debugURL string, selftest bool) {
	for i := range sum.Slowest {
		id := sum.Slowest[i].TraceID
		tree, err := fetchTrace(debugURL, selftest, id)
		if err != nil {
			tree = "trace " + id + " unavailable: " + err.Error()
		}
		sum.Slowest[i].Tree = tree
	}
}

// fetchTrace returns the rendered span tree for one trace ID.
func fetchTrace(debugURL string, selftest bool, id string) (string, error) {
	if debugURL == "" {
		if !selftest {
			return "", fmt.Errorf("no -debug-url given")
		}
		t := obs.DefaultTraces.Get(id)
		if t == nil {
			return "", fmt.Errorf("not in trace store (evicted or sampled out)")
		}
		return obs.TraceText(t), nil
	}
	url := strings.TrimRight(debugURL, "/") + "/traces/" + id + "?format=text"
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return string(body), nil
}

// truncate caps s at n runes for display.
func truncate(s string, n int) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// readResp scans one response line into out.
func readResp(sc *bufio.Scanner, out *server.Response) bool {
	if !sc.Scan() {
		return false
	}
	return json.Unmarshal(sc.Bytes(), out) == nil
}

// pctMS reads the p-quantile off a sorted latency slice, in ms.
func pctMS(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// settleGoroutines waits for the goroutine count to return to at most
// base, returning the excess still present at the deadline (0 = clean).
func settleGoroutines(base int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine() - base
}

// report prints the run summary.
func report(s summary, leaked int, asJSON bool) {
	if asJSON {
		b, err := json.MarshalIndent(struct {
			summary
			LeakedGoroutines int `json:"leaked_goroutines"`
		}{s, leaked}, "", "  ")
		if err == nil {
			fmt.Println(string(b))
		}
		return
	}
	fmt.Printf("clients=%d requests=%d ok=%d errors=%d shed=%d dial_errors=%d\n",
		s.Clients, s.Requests, s.OK, s.Errors, s.Shed, s.DialErrors)
	if s.Ingested > 0 {
		fmt.Printf("ingested=%d durable batches\n", s.Ingested)
	}
	fmt.Printf("wall=%.2fs throughput=%.0f req/s\n", s.WallSec, s.Throughput)
	fmt.Printf("latency p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
		s.P50MS, s.P95MS, s.P99MS, s.MaxMS)
	if leaked > 0 {
		fmt.Printf("leaked goroutines: %d\n", leaked)
	}
	if s.FirstError != "" {
		fmt.Printf("first error: %s\n", s.FirstError)
	}
	if len(s.Slowest) > 0 {
		fmt.Println("slowest requests:")
		for _, rt := range s.Slowest {
			fmt.Printf("  %s  %8.2fms  %s\n", rt.TraceID, rt.LatMS, rt.Query)
		}
	}
	if len(s.ShedIDs) > 0 {
		fmt.Printf("shed trace ids: %s\n", strings.Join(s.ShedIDs, " "))
	}
	for _, rt := range s.Slowest {
		if rt.Tree != "" {
			fmt.Printf("\n--- trace %s (%.2fms) ---\n%s", rt.TraceID, rt.LatMS, rt.Tree)
		}
	}
}
