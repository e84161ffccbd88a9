package server

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"semjoin/internal/graph"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/obs"
	"semjoin/internal/wal"
)

// newIngestServer boots a server whose fixture catalog is wired for
// in-memory durability, and opens the product store over the wire so
// ingest requests have somewhere to land.
func newIngestServer(t *testing.T, fs *wal.MemFS) (*Server, *client) {
	t.Helper()
	fix, err := difftest.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	fix.Cat.DurableOpts.Policy = wal.SyncAlways
	fix.Cat.DurableOpts.FS = fs
	srv, err := New(Config{Cat: fix.Cat, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := fix.Cat.Durable.Close(); err != nil {
			t.Errorf("durable close: %v", err)
		}
	})
	c := dialPipe(t, srv)
	c.mustRows("OPEN product db")
	return srv, c
}

func TestIngestGraphBatch(t *testing.T) {
	_, c := newIngestServer(t, wal.NewMemFS())

	resp := c.roundTrip(Request{Op: OpIngest, Base: "product", Kind: "graph",
		Updates: []IngestUpdate{
			{Op: "insert_vertex", Label: "acme gmbh", Type: "company"},
			{Op: "insert_edge", From: 0, To: 1, Label: "based_in"},
		}})
	if !resp.OK {
		t.Fatalf("ingest: %s (%s)", resp.Error, resp.Code)
	}
	if resp.Seq == 0 {
		t.Fatal("ingest response missing WAL seq")
	}
	// A second batch advances the sequence.
	resp2 := c.roundTrip(Request{Op: OpIngest, Base: "product", Kind: "graph",
		Updates: []IngestUpdate{{Op: "delete_edge", From: 0, To: 1, Label: "based_in"}}})
	if !resp2.OK || resp2.Seq <= resp.Seq {
		t.Fatalf("second ingest seq = %d after %d (ok=%v %s)", resp2.Seq, resp.Seq, resp2.OK, resp2.Error)
	}
	// Queries on the same connection still answer afterwards.
	c.mustRows("select pid from product limit 1")
}

func TestIngestRelationAndKeywords(t *testing.T) {
	_, c := newIngestServer(t, wal.NewMemFS())

	// Replace the product relation with a two-row version rendered by
	// the wire convention (schema order, display strings).
	rows := c.mustRows("select * from product limit 2")
	if len(rows.Rows) != 2 {
		t.Fatalf("want 2 seed rows, got %d", len(rows.Rows))
	}
	resp := c.roundTrip(Request{Op: OpIngest, Base: "product", Kind: "relation", Rows: rows.Rows})
	if !resp.OK {
		t.Fatalf("relation ingest: %s", resp.Error)
	}
	after := c.mustRows("select pid from product")
	if after.RowsTotal != 2 {
		t.Fatalf("product has %d rows after replacement, want 2", after.RowsTotal)
	}

	kw := c.roundTrip(Request{Op: OpIngest, Base: "product", Kind: "keywords", Keywords: []string{"company"}})
	if !kw.OK || kw.Seq <= resp.Seq {
		t.Fatalf("keyword ingest: ok=%v seq=%d (after %d): %s", kw.OK, kw.Seq, resp.Seq, kw.Error)
	}
}

// TestIngestAcksItsOwnSeq: sessions ingesting concurrently into one
// domain, addressed through either base, are each acked with the WAL seq
// their own batch was logged at — not the seq of whichever batch another
// writer appended in between — so the acks are exactly 1..K·n, each once.
func TestIngestAcksItsOwnSeq(t *testing.T) {
	srv, first := newIngestServer(t, wal.NewMemFS())
	const sessions, n = 4, 5
	clients := []*client{first}
	for len(clients) < sessions {
		clients = append(clients, dialPipe(t, srv))
	}
	acks := make([][]uint64, sessions)
	errs := make(chan string, sessions*n)
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			base := [2]string{"product", "customer"}[k%2]
			for i := 0; i < n; i++ {
				resp := c.roundTrip(Request{Op: OpIngest, Base: base, Kind: "graph",
					Updates: []IngestUpdate{{Op: "insert_vertex", Label: fmt.Sprintf("co %d-%d", k, i), Type: "company"}}})
				if !resp.OK {
					errs <- resp.Error
					return
				}
				acks[k] = append(acks[k], resp.Seq)
			}
		}(k, c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("ingest: %s", e)
	}
	seen := map[uint64]bool{}
	for _, a := range acks {
		for _, seq := range a {
			if seen[seq] || seq < 1 || seq > sessions*n {
				t.Fatalf("acked seqs %v: not each of 1..%d once", acks, sessions*n)
			}
			seen[seq] = true
		}
	}
}

func TestIngestErrors(t *testing.T) {
	_, c := newIngestServer(t, wal.NewMemFS())

	for name, req := range map[string]Request{
		"unknown base": {Op: OpIngest, Base: "nosuch", Kind: "graph", Updates: []IngestUpdate{{Op: "delete_vertex"}}},
		"unknown kind": {Op: OpIngest, Base: "product", Kind: "csv"},
		"empty graph":  {Op: OpIngest, Base: "product", Kind: "graph"},
		"bad op":       {Op: OpIngest, Base: "product", Kind: "graph", Updates: []IngestUpdate{{Op: "upsert"}}},
		"empty rows":   {Op: OpIngest, Base: "product", Kind: "relation"},
		"short row":    {Op: OpIngest, Base: "product", Kind: "relation", Rows: [][]string{{"fd0"}}},
		"bad int cell": {Op: OpIngest, Base: "product", Kind: "relation", Rows: [][]string{{"fd0", "x", "y", "notanint"}}},
		"no keywords":  {Op: OpIngest, Base: "product", Kind: "keywords"},
	} {
		resp := c.roundTrip(req)
		if resp.OK || resp.Code != "error" {
			t.Errorf("%s: want error response, got %+v", name, resp)
		}
	}
}

// TestIngestSurvivesRestart checkpoints nothing: it writes a graph
// batch over the wire, tears the whole server down, then boots a
// fresh server over the same in-memory filesystem and checks the WAL
// replay carried the update into query results.
func TestIngestSurvivesRestart(t *testing.T) {
	fs := wal.NewMemFS()

	fix, err := difftest.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	fix.Cat.DurableOpts.Policy = wal.SyncAlways
	fix.Cat.DurableOpts.FS = fs
	srv, err := New(Config{Cat: fix.Cat, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	c := dialPipe(t, srv)
	c.mustRows("OPEN product db")
	before := c.mustRows("select vid from product e-join G <company> as T").RowsTotal

	// Grow the graph: a fresh company vertex per seed product edge
	// keeps the update visible without caring about concrete ids.
	resp := c.roundTrip(Request{Op: OpIngest, Base: "product", Kind: "graph",
		Updates: []IngestUpdate{{Op: "insert_vertex", Label: "restartco", Type: "company"}}})
	if !resp.OK {
		t.Fatalf("ingest: %s", resp.Error)
	}
	seq := resp.Seq
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Abandon the catalog without Close: the WAL must already be
	// durable (SyncAlways) — this is the kill -9 the CI leg replays.
	fs.Crash()

	fix2, err := difftest.Build(7)
	if err != nil {
		t.Fatal(err)
	}
	fix2.Cat.DurableOpts.FS = fs
	srv2, err := New(Config{Cat: fix2.Cat, Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv2.Shutdown(ctx)
		_ = fix2.Cat.Durable.Close()
	})
	c2 := dialPipe(t, srv2)
	open := c2.mustRows("OPEN product db")
	// wal_records column must cover the logged batch.
	recCol := -1
	for i, col := range open.Columns {
		if col == "wal_records" {
			recCol = i
		}
	}
	if recCol < 0 {
		t.Fatalf("OPEN status lacks wal_records: %v", open.Columns)
	}
	n, err := strconv.Atoi(open.Rows[0][recCol])
	if err != nil || uint64(n) < seq {
		t.Fatalf("replayed %v records, want >= %d", open.Rows[0][recCol], seq)
	}
	st := fix2.Cat.Durable.Get("product")
	if st.LastSeq() != seq {
		t.Fatalf("recovered LastSeq = %d, want %d", st.LastSeq(), seq)
	}
	found := false
	st.Graph().Vertices(func(v graph.Vertex) {
		if v.Label == "restartco" {
			found = true
		}
	})
	if !found {
		t.Fatal("ingested vertex lost across restart")
	}
	after := c2.mustRows("select vid from product e-join G <company> as T").RowsTotal
	if after != before {
		t.Fatalf("e-join rows changed %d -> %d across restart (vertex is disconnected)", before, after)
	}
}
