package gsql

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"semjoin/internal/core"
	"semjoin/internal/graph"
	"semjoin/internal/mat"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
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

	// Queries keep working through the durable base, off its version.
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

// TestQueryReportsTheVersionItRead: the version a query was answered
// from is on the engine (LastVersionSeq), on the query's span, in SHOW
// SESSION and counted — and it is the version published when the query
// ran, not the one a later statement finds.
func TestQueryReportsTheVersionItRead(t *testing.T) {
	fin := buildFintech()
	fin.cat.DurableOpts = core.DurableOptions{FS: wal.NewMemFS()}
	eng := NewEngine(fin.cat)
	eng.Obs = obs.NewRegistry()
	const q = "select pid, company from product e-join G <company, country> as T"
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	if eng.LastVersionSeq != 0 || eng.LastTrace.Note != "" {
		t.Fatalf("no store open, yet seq=%d note=%q", eng.LastVersionSeq, eng.LastTrace.Note)
	}
	if _, err := eng.Query("OPEN product db"); err != nil {
		t.Fatal(err)
	}
	st := fin.cat.Durable.Get("product")
	for want := uint64(1); want <= 2; want++ {
		if _, err := st.ApplyGraphUpdate(graph.RandomMixedBatch(st.Graph(), mat.NewRNG(want), 4)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Query(q); err != nil {
			t.Fatal(err)
		}
		if eng.LastVersionSeq != want || eng.LastTrace.Note != fmt.Sprintf("version seq %d", want) {
			t.Fatalf("after update %d: LastVersionSeq=%d, span note %q", want, eng.LastVersionSeq, eng.LastTrace.Note)
		}
	}
	if got := showSessionMap(t, eng)["version_seq"]; got != "2" {
		t.Fatalf("SHOW SESSION version_seq = %q, want 2", got)
	}
	if got := eng.Obs.Counter("core_version_reads_total").Value(); got != 2 {
		t.Fatalf("core_version_reads_total = %d, want 2", got)
	}
}

// TestOpenRecoversAndRebindsCatalog checkpoints a mutated store, then
// opens the same directory from a brand-new pristine catalog: OPEN
// must load the snapshot, and the catalog's base, its graph names and
// the reference relation must resolve to the recovered copies — and to
// the next version once an update has published one.
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
	if fin2.cat.Mat.View().G != st2.Graph() || fin2.cat.Graph("G") != st2.Graph() || fin2.cat.Graph("Gp") != st2.Graph() {
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
	recovered := st2.Graph()
	if _, err := st2.ApplyGraphUpdate(graph.RandomMixedBatch(recovered, mat.NewRNG(10), 6)); err != nil {
		t.Fatal(err)
	}
	if st2.Graph() == recovered || fin2.cat.Graph("G") != st2.Graph() || fin2.cat.Mat.Base("product") != st2.Base() {
		t.Fatal("catalog does not follow the version an update published")
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

// TestUpdateThroughAnyStoreReachesTheQueryGraph: cmd/gsql -data-dir
// opens one store per base over the one working graph, and each
// publishes the graph after its own updates only. Whichever store an
// update goes through, first opened or last, the next query reads the
// graph with that update in it beside the base the update re-extracted —
// never that base's new f(D,G) over another store's older snapshot — and
// answers as a catalog with that one store open does.
func TestUpdateThroughAnyStoreReachesTheQueryGraph(t *testing.T) {
	queries := []string{
		"select customer.cid, customer2.cid from customer l-join <G> customer as customer2",
		"select product.pid, c2.cid from product l-join <Gp> customer as c2",
		"select cid, company from customer e-join G <company, product> as T",
	}
	// run opens the named bases in order, streams two graph updates and a
	// relation update through the customer store and answers the queries.
	run := func(t *testing.T, opens ...string) (results [][]string, fin *fintech, eng *Engine) {
		fin = buildFintech()
		fin.cat.DurableOpts = core.DurableOptions{FS: wal.NewMemFS()}
		eng = NewEngine(fin.cat)
		eng.Obs = obs.NewRegistry()
		for _, base := range opens {
			if _, err := eng.Query(fmt.Sprintf("OPEN %s %s", base, base)); err != nil {
				t.Fatal(err)
			}
		}
		st := fin.cat.Durable.Get("customer")
		a, b := fin.truth["cid00"], fin.truth["cid05"]
		for _, delta := range []graph.Batch{
			{{Op: graph.InsertEdge, Edge: graph.Edge{From: a, Label: "knows", To: b}}},
			graph.RandomMixedBatch(st.Graph(), mat.NewRNG(21), 6),
		} {
			if _, err := st.ApplyGraphUpdate(delta); err != nil {
				t.Fatal(err)
			}
		}
		fewer := rel.NewRelation(fin.customers.Schema)
		fewer.Tuples = append(fewer.Tuples, fin.customers.Tuples[:len(fin.customers.Tuples)-2]...)
		if _, err := st.ApplyRelationUpdate(fewer); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			out, err := eng.Query(q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			rows := make([]string, out.Len())
			for i, tup := range out.Tuples {
				rows[i] = fmt.Sprint(tup)
			}
			sort.Strings(rows)
			results = append(results, rows)
		}
		return results, fin, eng
	}

	want, _, _ := run(t, "customer")
	linked := false
	for _, row := range want[0] {
		linked = linked || row == fmt.Sprint(rel.Tuple{rel.S("cid00"), rel.S("cid05")})
	}
	if !linked {
		t.Fatal("the inserted edge does not link cid00 to cid05 even with one store: the test reads nothing")
	}
	for _, opens := range [][]string{{"customer", "product"}, {"product", "customer"}} {
		t.Run(strings.Join(opens, "-then-"), func(t *testing.T) {
			got, fin, eng := run(t, opens...)
			st := fin.cat.Durable.Get("customer")
			if g := fin.cat.Graph("G"); g.Mutations() != st.Graph().Mutations() {
				t.Fatalf("queries read a graph at %d mutations, the store that took the updates published one at %d",
					g.Mutations(), st.Graph().Mutations())
			}
			for qi := range queries {
				if !slices.Equal(got[qi], want[qi]) {
					t.Errorf("%q: %d rows, want the %d a catalog with the customer store alone returns",
						queries[qi], len(got[qi]), len(want[qi]))
				}
			}
			// Three updates in the customer store's log, none in the
			// product store's: the view holds three.
			if eng.LastVersionSeq != 3 {
				t.Errorf("LastVersionSeq = %d, want 3", eng.LastVersionSeq)
			}
		})
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
