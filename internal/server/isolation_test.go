package server

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sessionSettings reads SHOW SESSION into a map.
func sessionSettings(t *testing.T, c *client) map[string]string {
	t.Helper()
	resp := c.mustRows("show session")
	out := map[string]string{}
	for _, row := range resp.Rows {
		if len(row) == 2 {
			out[row[0]] = row[1]
		}
	}
	return out
}

// TestSessionIsolation is the session-isolation property: SET
// PARALLELISM / SET SLOW_QUERY_MS in one session
// must never become visible in another — neither in an existing
// concurrent session nor in one opened afterwards.
func TestSessionIsolation(t *testing.T) {
	srv := newTestServer(t, 3, Limits{}, nil)
	a, b := dialPipe(t, srv), dialPipe(t, srv)

	before := sessionSettings(t, b)
	defPar := before["parallelism"]
	if before["slow_query_ms"] != "0" {
		t.Fatalf("unexpected defaults: %v", before)
	}

	// Diverge session A on every knob.
	a.mustRows("set parallelism 1")
	a.mustRows("set slow_query_ms 250")
	gotA := sessionSettings(t, a)
	if gotA["parallelism"] != "1" || gotA["slow_query_ms"] != "250" {
		t.Fatalf("session A settings did not apply: %v", gotA)
	}

	// Session B must still see the defaults...
	gotB := sessionSettings(t, b)
	if gotB["parallelism"] != defPar {
		t.Errorf("SET PARALLELISM leaked: B sees %q, want %q", gotB["parallelism"], defPar)
	}
	if gotB["slow_query_ms"] != "0" {
		t.Errorf("SET SLOW_QUERY_MS leaked: B sees %q, want 0", gotB["slow_query_ms"])
	}
	// ...and so must a session opened after A diverged.
	cNew := dialPipe(t, srv)
	gotNew := sessionSettings(t, cNew)
	if gotNew["parallelism"] != defPar || gotNew["slow_query_ms"] != "0" {
		t.Errorf("fresh session inherited A's settings: %v", gotNew)
	}

	// The isolation is bidirectional: B diverging must not touch A.
	b.mustRows("set parallelism 3")
	if got := sessionSettings(t, a); got["parallelism"] != "1" {
		t.Errorf("B's SET PARALLELISM leaked into A: %v", got["parallelism"])
	}
}

// TestSessionTeardownLeavesNoGoroutines opens and tears down a wave
// of sessions — each having run real queries — and requires the
// goroutine count to settle back to its baseline.
func TestSessionTeardownLeavesNoGoroutines(t *testing.T) {
	srv := newTestServer(t, 3, Limits{}, nil)
	// Warm: the first session exercises lazy engine state (gL cache,
	// columnar images) so the baseline is taken after one-time setup.
	w := dialPipe(t, srv)
	w.mustRows("select pid from product")
	if resp := w.roundTrip(Request{Op: OpClose}); !resp.OK {
		t.Fatal("warm close failed")
	}
	waitSessions(t, srv, 0)
	base := runtime.NumGoroutine()

	for wave := 0; wave < 3; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := dialPipe(t, srv)
				c.mustRows("set parallelism 2")
				c.mustRows(fmt.Sprintf("select pid, price from product where price >= %d", 60+10*(i%5)))
				c.mustRows("select count(*) as n from customer")
				if i%2 == 0 {
					_ = c.conn.Close() // abrupt disconnect
				} else if resp := c.roundTrip(Request{Op: OpClose}); !resp.OK {
					t.Errorf("close: %+v", resp)
				}
			}(i)
		}
		wg.Wait()
		waitSessions(t, srv, 0)
	}
	settleGoroutines(t, base)
}

// TestMidQueryDisconnectCancelsAndLeavesNoGoroutines: a client that
// vanishes while its query is executing must have that query's
// context cancelled (the worker pools wind down) — no stranded
// workers, and the server keeps serving others.
func TestMidQueryDisconnectCancelsAndLeavesNoGoroutines(t *testing.T) {
	srv := newTestServer(t, 3, Limits{}, nil)
	// A long-lived control session pins the server "warm" and proves
	// liveness afterwards.
	ctl := dialPipe(t, srv)
	ctl.mustRows("select pid from product")
	base := runtime.NumGoroutine()

	// The 3-way cross join is large enough that some disconnects land
	// mid-drain; the staggered delay sweeps the window from "before
	// execution" to "after completion".
	heavy := `select c.cid, p.pid from customer as c, product as p, customer as c2
		where c.bal >= 0 and p.price >= 0 order by c.cid, p.pid limit 100000`
	for i := 0; i < 24; i++ {
		c := dialPipe(t, srv)
		c.mustRows("set parallelism 4")
		if err := c.enc.Encode(Request{Op: OpQuery, Query: heavy}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i%6) * 200 * time.Microsecond)
		_ = c.conn.Close()
	}
	waitSessions(t, srv, 1) // only the control session remains
	settleGoroutines(t, base)

	// The engine is still healthy for everyone else.
	if resp := ctl.mustRows("select count(*) as n from product"); resp.RowsTotal != 1 {
		t.Fatalf("control session after disconnect storm: %+v", resp)
	}
}

// TestShutdownCancelsInFlightQueries: Shutdown must not wait for slow
// queries to finish — their contexts are cancelled and sessions drain
// promptly.
func TestShutdownCancelsInFlightQueries(t *testing.T) {
	srv := newTestServer(t, 3, Limits{}, nil)
	var clients []*client
	for i := 0; i < 8; i++ {
		c := dialPipe(t, srv)
		c.mustRows("set parallelism 2")
		// Fire a heavy query without reading the response.
		if err := c.enc.Encode(Request{Op: OpQuery, Query: `select c.cid, p.pid
			from customer as c, product as p, customer as c2 order by c.cid limit 100000`}); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with in-flight queries: %v (after %s)", err, time.Since(start))
	}
	for _, c := range clients {
		_ = c.conn.Close()
	}
}

// settleGoroutines polls until the goroutine count returns to at most
// base or the deadline expires.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d > %d", runtime.NumGoroutine(), base)
}
