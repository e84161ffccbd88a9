package gsql

import (
	"bytes"
	"testing"

	"semjoin/internal/core"
	"semjoin/internal/graph"
	"semjoin/internal/mat"
	"semjoin/internal/wal"
)

// TestOpenCheckpointStatements drives the OPEN / CHECKPOINT statement
// surface end to end on a fresh fixture over an in-memory filesystem:
// open, duplicate-open rejection, querying through the durable base,
// checkpointing, and the usage errors.
func TestOpenCheckpointStatements(t *testing.T) {
	fin := buildFintech()
	fs := wal.NewMemFS()
	fin.cat.DurableOpts = core.DurableOptions{Policy: wal.SyncAlways, FS: fs}
	eng := &Engine{Cat: fin.cat}

	if _, err := eng.Query("CHECKPOINT"); err == nil {
		t.Fatal("CHECKPOINT with no open stores should error")
	}
	if _, err := eng.Query("OPEN product"); err == nil {
		t.Fatal("OPEN with one arg should error")
	}
	out, err := eng.Query("OPEN product db")
	if err != nil {
		t.Fatalf("OPEN: %v", err)
	}
	if out.Len() != 1 || out.Schema.Col("snapshot_seq") < 0 {
		t.Fatalf("OPEN status relation malformed: %v", out.Schema)
	}
	st := fin.cat.Durable.Get("product")
	if st == nil {
		t.Fatal("OPEN did not register the store")
	}
	if _, err := eng.Query("OPEN product db2"); err == nil {
		t.Fatal("duplicate OPEN should error")
	}
	if _, err := eng.Query("OPEN nosuch db3"); err == nil {
		t.Fatal("OPEN of unknown base should error")
	}

	// Queries keep working through the durable base, under its lock.
	rows, err := eng.Query("select pid from product")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != fin.products.Len() {
		t.Fatalf("query through durable base returned %d rows, want %d", rows.Len(), fin.products.Len())
	}

	// An update through the store is logged; CHECKPOINT compacts it.
	if _, err := st.ApplyGraphUpdate(graph.RandomMixedBatch(st.Graph(), mat.NewRNG(3), 4)); err != nil {
		t.Fatal(err)
	}
	before := st.LastSeq()
	if before == 0 {
		t.Fatal("update was not logged")
	}
	out, err = eng.Query("CHECKPOINT product")
	if err != nil {
		t.Fatalf("CHECKPOINT: %v", err)
	}
	if out.Len() != 1 {
		t.Fatalf("CHECKPOINT status rows = %d", out.Len())
	}
	if got := st.SnapshotSeq(); got != before {
		t.Fatalf("SnapshotSeq = %d, want %d", got, before)
	}
	if _, err := eng.Query("CHECKPOINT nosuch"); err == nil {
		t.Fatal("CHECKPOINT of unknown store should error")
	}
	// Bare CHECKPOINT hits every open store.
	if _, err := eng.Query("checkpoint"); err != nil {
		t.Fatalf("bare CHECKPOINT: %v", err)
	}
}

// TestOpenRecoversAndRebindsCatalog checkpoints a mutated store, then
// opens the same directory from a brand-new pristine catalog: OPEN
// must load the snapshot, rebind the catalog's base and graphs to the
// recovered copies and serve the recovered reference relation.
func TestOpenRecoversAndRebindsCatalog(t *testing.T) {
	fs := wal.NewMemFS()

	fin1 := buildFintech()
	fin1.cat.DurableOpts = core.DurableOptions{Policy: wal.SyncAlways, FS: fs}
	eng1 := &Engine{Cat: fin1.cat}
	if _, err := eng1.Query("OPEN product db"); err != nil {
		t.Fatal(err)
	}
	st1 := fin1.cat.Durable.Get("product")
	if _, err := st1.ApplyGraphUpdate(graph.RandomMixedBatch(st1.Graph(), mat.NewRNG(9), 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng1.Query("CHECKPOINT"); err != nil {
		t.Fatal(err)
	}
	wantGraph := graphImageBytes(t, st1.Graph())
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	fin2 := buildFintech()
	fin2.cat.DurableOpts = core.DurableOptions{FS: fs}
	eng2 := &Engine{Cat: fin2.cat}
	if _, err := eng2.Query("OPEN product db"); err != nil {
		t.Fatalf("OPEN over snapshot: %v", err)
	}
	st2 := fin2.cat.Durable.Get("product")
	if st2.Graph() == fin2.g {
		t.Fatal("snapshot recovery should carry its own graph copy")
	}
	if fin2.cat.Mat.G != st2.Graph() || fin2.cat.Graphs["G"] != st2.Graph() || fin2.cat.Graphs["Gp"] != st2.Graph() {
		t.Fatal("catalog graphs not rebound to the recovered graph")
	}
	if fin2.cat.Mat.Base("product") != st2.Base() {
		t.Fatal("materialized base not rebound")
	}
	if fin2.cat.Relation("product") != st2.Base().Spec.D {
		t.Fatal("queries do not read the recovered reference relation")
	}
	if got := graphImageBytes(t, st2.Graph()); string(got) != string(wantGraph) {
		t.Fatal("recovered graph differs from the checkpointed one")
	}
	// And the rebound catalog still answers queries.
	rows, err := eng2.Query("select pid, company from product e-join G <company, country> as T")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Fatal("e-join over recovered base returned no rows")
	}
}

func graphImageBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
