package gsql

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
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
// OPEN of one base opens its whole domain, a second OPEN is refused
// naming the open dir, queries run through the durable bases, CHECKPOINT
// snapshots the domain, Close leaves the last version readable and a
// new OPEN possible, and the usage errors.
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
	if _, err := eng.Query("OPEN nosuch db3"); err == nil {
		t.Fatal("OPEN of unknown base should error")
	}
	out, err := eng.Query("OPEN product db")
	if err != nil {
		t.Fatalf("OPEN: %v", err)
	}
	if out.Len() != 2 || out.Schema.Col("snapshot_seq") < 0 {
		t.Fatalf("OPEN status relation: %d rows of %v, want one per base of the domain", out.Len(), out.Schema)
	}
	st := fin.cat.Durable.Get("product")
	if st == nil || fin.cat.Durable.Get("customer") != st {
		t.Fatal("OPEN product did not open the domain's one store for both bases")
	}
	for _, again := range []string{"OPEN product db2", "OPEN customer db2"} {
		if _, err := eng.Query(again); err == nil || !strings.Contains(err.Error(), "open in db") {
			t.Fatalf("%s: %v, want a refusal naming the open dir", again, err)
		}
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
	out, err = eng.Query("CHECKPOINT customer")
	if err != nil {
		t.Fatalf("CHECKPOINT: %v", err)
	}
	if out.Len() != 2 {
		t.Fatalf("CHECKPOINT status rows = %d, want one per base of the domain", out.Len())
	}
	if got := st.SnapshotSeq(); got != before {
		t.Fatalf("SnapshotSeq = %d, want %d", got, before)
	}
	if _, err := eng.Query("CHECKPOINT nosuch"); err == nil {
		t.Fatal("CHECKPOINT of a base outside the domain should error")
	}
	if _, err := eng.Query("checkpoint"); err != nil {
		t.Fatalf("bare CHECKPOINT: %v", err)
	}

	// Close: the catalog and the materialisation agree no store is open,
	// queries keep the last version, and OPEN works again.
	want := answers(t, eng, domainQueries)
	if err := fin.cat.Durable.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query("CHECKPOINT"); err == nil || !strings.Contains(err.Error(), "no durable store open") {
		t.Fatalf("CHECKPOINT after Close: %v, want no store open", err)
	}
	if got := answers(t, eng, domainQueries); !slices.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Fatal("Close changed what queries read")
	}
	if _, err := eng.Query("OPEN customer db"); err != nil {
		t.Fatalf("OPEN after Close: %v", err)
	}
	if st2 := fin.cat.Durable.Get("product"); st2 == nil || st2 == st || st2.LastSeq() != before {
		t.Fatal("OPEN after Close did not recover the domain's store")
	}
	if got := answers(t, eng, domainQueries); !slices.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Fatal("re-OPEN changed what queries read")
	}
	if err := fin.cat.Durable.Close(); err != nil {
		t.Fatal(err)
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
	if fin2.cat.Mat.Base("product") != st2.Version().Base("product") {
		t.Fatal("materialized base not rebound")
	}
	if fin2.cat.Relation("product") != st2.Version().Base("product").Spec.D {
		t.Fatal("queries do not read the recovered reference relation")
	}
	if got := graphImageBytes(t, st2.Graph()); string(got) != string(wantGraph) {
		t.Fatal("recovered graph differs from the checkpointed one")
	}
	recovered := st2.Graph()
	if _, err := st2.ApplyGraphUpdate(graph.RandomMixedBatch(recovered, mat.NewRNG(10), 6)); err != nil {
		t.Fatal(err)
	}
	if st2.Graph() == recovered || fin2.cat.Graph("G") != st2.Graph() || fin2.cat.Mat.Base("product") != st2.Version().Base("product") {
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

// domainQueries read the graph and both bases of the fintech domain.
var domainQueries = []string{
	"select customer.cid, customer2.cid from customer l-join <G> customer as customer2",
	"select product.pid, c2.cid from product l-join <Gp> customer as c2",
	"select cid, company from customer e-join G <company, product> as T",
	"select pid, company, country from product e-join G <company, country> as T",
}

// answers runs the queries on eng, each as a sorted list of rows.
func answers(t *testing.T, eng *Engine, queries []string) [][]string {
	t.Helper()
	var out [][]string
	for _, q := range queries {
		r, err := eng.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		out = append(out, rowSet(r))
	}
	return out
}

func rowSet(r *rel.Relation) []string {
	rows := make([]string, r.Len())
	for i, tup := range r.Tuples {
		rows[i] = fmt.Sprint(tup)
	}
	sort.Strings(rows)
	return rows
}

// fromScratch materialises both fintech bases afresh on the (D, G) of
// view v, each under the scheme v's base holds, and returns a catalog
// over them: what every read of v must answer as.
func fromScratch(t *testing.T, fin *fintech, v *core.View) *Catalog {
	t.Helper()
	m, err := core.BuildMaterialized(v.G, fin.models, nil, core.Config{K: 3, H: 14, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]*rel.Relation{}
	for _, name := range []string{"customer", "product"} {
		b := v.Base(name)
		cfg := core.Config{K: 3, H: 14, Seed: 5, Keywords: b.AR(), MaxAttrs: len(b.AR())}
		ex := core.NewExtractor(v.G, fin.models, cfg)
		h, err := ex.ExtractWithScheme(b.Spec.D, b.Extractor.Scheme(), fin.cat.Matcher.Match(b.Spec.D, v.G))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rowSet(h), rowSet(b.Extracted)) {
			t.Fatalf("%s: h(D,G) at seq %d differs from a from-scratch build on the same (D, G)", name, v.Seq())
		}
		m.SetBase(name, &core.BaseMaterialization{Spec: core.BaseSpec{D: b.Spec.D, AR: b.AR(), Matcher: fin.cat.Matcher}, Extractor: ex, Extracted: h})
		rels[name] = b.Spec.D
	}
	cat := *fin.cat
	cat.Relations, cat.Graphs, cat.Mat, cat.Durable = rels, map[string]*graph.Graph{"G": v.G, "Gp": v.G}, m, nil
	return &cat
}

// TestUpdateThroughAnyStoreReachesTheQueryGraph: one store keeps the
// fintech domain, whichever base OPEN names, and an update reaches it
// through either base's name. A ΔG re-extracts customer and product
// alike, each h(D,G) equals a from-scratch build on the same (D, G), and
// the queries answer as a catalog materialised from scratch does. With
// one store per base, the design this replaced, an update re-extracted
// its own base only and the queries read the graph of the last store
// opened.
func TestUpdateThroughAnyStoreReachesTheQueryGraph(t *testing.T) {
	for _, c := range []struct{ open, through string }{{"customer", "product"}, {"product", "customer"}} {
		t.Run(c.open+"-then-"+c.through, func(t *testing.T) {
			fin := buildFintech()
			fin.cat.DurableOpts = core.DurableOptions{FS: wal.NewMemFS()}
			eng := NewEngine(fin.cat)
			eng.Obs = obs.NewRegistry()
			if _, err := eng.Query(fmt.Sprintf("OPEN %s db", c.open)); err != nil {
				t.Fatal(err)
			}
			st := fin.cat.Durable.Get(c.through)
			a, b := fin.truth["cid00"], fin.truth["cid05"]
			for i, delta := range []graph.Batch{
				{{Op: graph.InsertEdge, Edge: graph.Edge{From: a, Label: "knows", To: b}}},
				graph.RandomMixedBatch(st.Graph(), mat.NewRNG(21), 6),
			} {
				before := fin.cat.Mat.View()
				if _, err := st.ApplyGraphUpdate(delta); err != nil {
					t.Fatal(err)
				}
				after := fin.cat.Mat.View()
				for _, name := range []string{"customer", "product"} {
					if after.Base(name).Extracted == before.Base(name).Extracted {
						t.Fatalf("ΔG %d through %s did not re-extract %s", i, c.through, name)
					}
				}
				fromScratch(t, fin, after)
			}
			fewer := rel.NewRelation(fin.customers.Schema)
			fewer.Tuples = append(fewer.Tuples, fin.customers.Tuples[:len(fin.customers.Tuples)-2]...)
			if _, err := st.ApplyRelationUpdate("customer", fewer); err != nil {
				t.Fatal(err)
			}
			v := fin.cat.Mat.View()
			got := answers(t, eng, domainQueries)
			if eng.LastVersionSeq != 3 || v.Seq() != 3 {
				t.Errorf("LastVersionSeq = %d, view seq %d, want the WAL seq 3", eng.LastVersionSeq, v.Seq())
			}
			linked := slices.Contains(got[0], fmt.Sprint(rel.Tuple{rel.S("cid00"), rel.S("cid05")}))
			if !linked {
				t.Fatal("the inserted edge does not link cid00 to cid05: the test reads nothing")
			}
			ref := NewEngine(fromScratch(t, fin, v))
			ref.Obs = obs.NewRegistry()
			want := answers(t, ref, domainQueries)
			for qi := range domainQueries {
				if !slices.Equal(got[qi], want[qi]) {
					t.Errorf("%q: %d rows, a from-scratch materialisation of the same (D, G) gives %d",
						domainQueries[qi], len(got[qi]), len(want[qi]))
				}
			}
		})
	}
}

// TestRestartKeepsEveryUpdate: an update logged after a CHECKPOINT is in
// the query graph after a restart, whichever base it was addressed
// through. With one store per base, the design this replaced (cmd/gsql
// -data-dir opened one per base), the customer store's post-checkpoint
// edge went into its own recovered graph, the queries read the product
// store's, and the customer self l-join fell from 51 rows to 43.
func TestRestartKeepsEveryUpdate(t *testing.T) {
	fs := wal.NewMemFS()
	open := func() (*fintech, *Engine) {
		fin := buildFintech()
		fin.cat.DurableOpts = core.DurableOptions{Policy: wal.SyncAlways, FS: fs}
		eng := NewEngine(fin.cat)
		eng.Obs = obs.NewRegistry()
		if _, err := eng.Query("OPEN customer data"); err != nil {
			t.Fatal(err)
		}
		return fin, eng
	}
	fin, eng := open()
	st := fin.cat.Durable.Get("customer")
	if _, err := st.ApplyGraphUpdate(graph.RandomMixedBatch(st.Graph(), mat.NewRNG(21), 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query("CHECKPOINT"); err != nil {
		t.Fatal(err)
	}
	checkpointed := answers(t, eng, domainQueries)
	a, b := fin.truth["cid00"], fin.truth["cid05"]
	if _, err := st.ApplyGraphUpdate(graph.Batch{{Op: graph.InsertEdge, Edge: graph.Edge{From: a, Label: "knows", To: b}}}); err != nil {
		t.Fatal(err)
	}
	before := answers(t, eng, domainQueries)
	if slices.Equal(before[0], checkpointed[0]) {
		t.Fatal("the post-checkpoint edge did not change the customer self l-join: the test reads nothing")
	}
	if err := fin.cat.Durable.Close(); err != nil {
		t.Fatal(err)
	}

	_, eng2 := open()
	after := answers(t, eng2, domainQueries)
	for qi, q := range domainQueries {
		if !slices.Equal(after[qi], before[qi]) {
			t.Errorf("%q: %d rows before the restart, %d after", q, len(before[qi]), len(after[qi]))
		}
	}
	t.Logf("customer self l-join: %d rows at the checkpoint, %d after the edge, %d after the restart",
		len(checkpointed[0]), len(before[0]), len(after[0]))
}

// TestConcurrentStreamsThroughEveryBaseName: two writers stream ΔGs into
// one domain at once, one addressing it as customer and one as product.
// Run under -race: they share one writer mutex, so the graph sees no
// concurrent write (with a store per base, two writer mutexes guarded
// one graph: a DATA RACE in graph.(*Graph).AddVertex). Both streams'
// vertices and edges are in the final graph, the log
// holds every batch once under the seq each writer was acked, and both
// bases are re-extracted to what a from-scratch build gives.
func TestConcurrentStreamsThroughEveryBaseName(t *testing.T) {
	fin := buildFintech()
	fin.cat.DurableOpts = core.DurableOptions{FS: wal.NewMemFS()}
	eng := NewEngine(fin.cat)
	eng.Obs = obs.NewRegistry()
	if _, err := eng.Query("OPEN product db"); err != nil {
		t.Fatal(err)
	}
	start := fin.cat.Mat.View()
	const n = 6
	bases := []string{"customer", "product"}
	acks := make([][]uint64, len(bases))
	var wg sync.WaitGroup
	for wi, base := range bases {
		wg.Add(1)
		go func(wi int, base string) {
			defer wg.Done()
			st := fin.cat.Durable.Get(base)
			for i := 0; i < n; i++ {
				from, to := fin.truth[fmt.Sprintf("cid%02d", i)], fin.truth[fmt.Sprintf("cid%02d", i+wi+1)]
				ist, err := st.ApplyGraphUpdate(graph.Batch{
					{Op: graph.InsertVertex, Label: fmt.Sprintf("%s probe %d", base, i), Type: "probe"},
					{Op: graph.InsertEdge, Edge: graph.Edge{From: from, Label: fmt.Sprintf("%s-%d", base, i), To: to}},
				})
				if err != nil {
					t.Error(err)
					return
				}
				acks[wi] = append(acks[wi], ist.Seq)
			}
		}(wi, base)
	}
	wg.Wait()

	v := fin.cat.Mat.View()
	if v.Seq() != 2*n {
		t.Fatalf("final version at seq %d, want %d", v.Seq(), 2*n)
	}
	seen := map[uint64]bool{}
	for _, a := range acks {
		for _, seq := range a {
			if seen[seq] || seq < 1 || seq > 2*n {
				t.Fatalf("acked seqs %v: not each of 1..%d once", acks, 2*n)
			}
			seen[seq] = true
		}
	}
	for wi, base := range bases {
		for i := 0; i < n; i++ {
			from, to := fin.truth[fmt.Sprintf("cid%02d", i)], fin.truth[fmt.Sprintf("cid%02d", i+wi+1)]
			label := fmt.Sprintf("%s-%d", base, i)
			if !slices.ContainsFunc(v.G.Out(from), func(h graph.HalfEdge) bool { return h.Label == label && h.To == to }) {
				t.Fatalf("edge %s of the stream through %s is not in the final graph", label, base)
			}
		}
	}
	if got := len(v.G.VerticesOfType("probe")); got != 2*n {
		t.Fatalf("%d of the streams' %d vertices are in the final graph", got, 2*n)
	}
	for _, name := range bases {
		if v.Base(name).Extracted == start.Base(name).Extracted {
			t.Fatalf("%s was not re-extracted", name)
		}
	}
	fromScratch(t, fin, v)
}

func graphImageBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
