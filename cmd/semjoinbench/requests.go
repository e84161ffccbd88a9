package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"semjoin/internal/dataset"
	"semjoin/internal/expr"
	"semjoin/internal/graph"
	"semjoin/internal/mat"
	"semjoin/internal/server"
)

// request is one generated request: what goes on the wire plus what the
// benchmark needs to check and replay it.
type request struct {
	Wire server.Request
	// Family names the query family (README, per-family breakdowns).
	Family string
	// Text is the equivalent plain gSQL of a read (parameters bound):
	// the key of its reference result and the input of in-process
	// replays. Empty for ingest.
	Text string
	// Batch is the decoded graph delta of an ingest request.
	Batch graph.Batch
}

// generator yields one session's request stream. A stream is a pure
// function of the seed and the generator inputs.
type generator interface{ next() request }

// genInputs is everything a generator may look at: never the live
// server state, only what the seeded collection determines.
type genInputs struct {
	Keys     []string // main relation keys in relation order
	Diseases []string // distinct disease values, sorted
	G        *graph.Graph
}

func newGenInputs(c *dataset.Collection) genInputs {
	in := genInputs{G: c.G}
	main := c.Rels[c.MainRel]
	keyCol, disCol := main.Schema.KeyCol(), main.Schema.Col("disease")
	seen := map[string]bool{}
	for _, t := range main.Tuples {
		in.Keys = append(in.Keys, t[keyCol].String())
		if d := t[disCol].String(); !seen[d] {
			seen[d] = true
			in.Diseases = append(in.Diseases, d)
		}
	}
	sort.Strings(in.Diseases)
	return in
}

// zipfKeys draws key indexes in [0, n) with a Zipf(s=1.1) skew: a few
// keys take most draws, so a bounded cache keyed by them sees hits, and
// the long tail (n is larger than the 256-entry gL cache) sees misses.
type zipfKeys struct{ z *rand.Zipf }

func newZipfKeys(rng *rand.Rand, n int) zipfKeys {
	return zipfKeys{rand.NewZipf(rng, 1.1, 1, uint64(n-1))}
}

func (z zipfKeys) next() int { return int(z.z.Uint64()) }

// pointLJoin is the prepared form of the point l-join; one request in
// five is sent as an exec of it.
const (
	pointLJoinName = "ljoin_point"
	pointLJoinSQL  = "select drug.cas, drug2.cas from drug l-join <G> drug as drug2 where drug.cas = $1"
)

// pointGen is the read_point mix: short well-behaved queries whose
// kernels finish in a few hundred microseconds, so wire, admission,
// parse, plan and locking are most of each request.
type pointGen struct {
	in   genInputs
	rng  *rand.Rand
	zipf zipfKeys
	n    int
}

func newPointGen(in genInputs, seed int64) *pointGen {
	rng := rand.New(rand.NewSource(seed))
	return &pointGen{in: in, rng: rng, zipf: newZipfKeys(rng, len(in.Keys))}
}

// pointFamilies in draw order with their weights (out of 10).
var pointFamilies = []struct {
	name   string
	weight int
}{
	{"ejoin_filter", 2}, {"ejoin_group", 1}, {"ejoin_subselect", 1},
	{"select_filter", 2}, {"select_order_limit", 1}, {"aggregate", 1},
	{"ljoin_point", 2},
}

func (g *pointGen) next() request {
	g.n++
	if g.n%5 == 0 {
		key := g.in.Keys[g.zipf.next()]
		return request{
			Family: "ljoin_point_prepared",
			Wire:   server.Request{Op: server.OpExec, Name: pointLJoinName, Args: []any{key}},
			Text:   strings.Replace(pointLJoinSQL, "$1", "'"+key+"'", 1),
		}
	}
	pick := g.rng.Intn(10)
	family := ""
	for _, f := range pointFamilies {
		if pick < f.weight {
			family = f.name
			break
		}
		pick -= f.weight
	}
	uniform := func() string { return g.in.Keys[g.rng.Intn(len(g.in.Keys))] }
	var q string
	switch family {
	case "ejoin_filter":
		q = fmt.Sprintf("select cas, name, disease from drug e-join G <disease> as T where T.disease = '%s'",
			g.in.Diseases[g.rng.Intn(len(g.in.Diseases))])
	case "ejoin_group":
		q = "select class, count(*) as n from drug e-join G <class> as T group by class order by class"
	case "ejoin_subselect":
		lo := g.rng.Intn(len(g.in.Keys))
		hi := lo + 20
		if hi >= len(g.in.Keys) {
			hi = len(g.in.Keys) - 1
		}
		q = fmt.Sprintf("select cas, class from (select cas, name from drug where cas >= '%s' and cas <= '%s') e-join G <class> as T",
			g.in.Keys[lo], g.in.Keys[hi])
	case "select_filter":
		q = fmt.Sprintf("select cas1, cas2, type from interact where cas1 = '%s'", uniform())
	case "select_order_limit":
		q = fmt.Sprintf("select cas, name from drug where cas >= '%s' order by cas limit 10", uniform())
	case "aggregate":
		q = "select type, count(*) as n from interact group by type order by type"
	default: // ljoin_point
		q = strings.Replace(pointLJoinSQL, "$1", "'"+g.in.Keys[g.zipf.next()]+"'", 1)
	}
	return request{Family: family, Text: q, Wire: server.Request{Op: server.OpQuery, Query: q}}
}

// scanGen is the read_scan mix: few heavy analytical queries, so rel
// kernels, reach/BFS and result encoding are nearly all of each
// request and parse/plan/wire are noise.
type scanGen struct {
	in        genInputs
	rng       *rand.Rand
	multiJoin string
	n         int
}

// multiJoinEntities bounds the two e-join inputs of the multi-join. The
// planner cross-joins its three FROM items before filtering, so its cost
// is entities² × |interact|: unshrunk, Drugs-q2 needs tens of GB.
const multiJoinEntities = 12

func newScanGen(in genInputs, seed int64) (*scanGen, error) {
	var sql string
	for _, q := range expr.Workload() {
		if q.Collection == collection && q.MultiJoin && q.WellBehaved {
			sql = strings.Join(strings.Fields(q.SQL), " ")
			break
		}
	}
	if !strings.Contains(sql, "drug e-join") {
		return nil, fmt.Errorf("no well-behaved multi-join over drug in expr.Workload()")
	}
	n := multiJoinEntities
	if n > len(in.Keys) {
		n = len(in.Keys)
	}
	sub := fmt.Sprintf("(select cas, name from drug where cas <= '%s') e-join", in.Keys[n-1])
	return &scanGen{in: in, rng: rand.New(rand.NewSource(seed)),
		multiJoin: strings.ReplaceAll(sql, "drug e-join", sub)}, nil
}

// scanCycle is the order a scan session repeats. A fixed cycle, not a
// draw: with a few hundred requests a window a drawn mix would move
// every percentile by its own sampling noise. The link join appears
// twice so that the median falls inside one family (40th to 80th
// percentile) and the 95th inside another (the multi-join), never on
// the boundary between two.
var scanCycle = []string{"ljoin_scan", "ejoin_sort", "ljoin_scan", "ejoin_wide_agg", "multijoin"}

func (g *scanGen) next() request {
	family := scanCycle[g.n%len(scanCycle)]
	g.n++
	var q string
	switch family {
	case "ljoin_scan":
		// The predicates are part of the gL key: a lower bound within
		// the first tenth of the keys and one excluded key give tens of
		// thousands of distinct keys over nearly the whole relation, so
		// these run their BFS instead of reading the cache.
		lo := g.rng.Intn(len(g.in.Keys)/10 + 1)
		q = fmt.Sprintf("select drug.cas, drug2.cas from drug l-join <G> drug as drug2 where drug.cas >= '%s' and not drug.cas = '%s'",
			g.in.Keys[lo], g.in.Keys[g.rng.Intn(len(g.in.Keys))])
	case "ejoin_sort":
		q = "select cas, name, class, disease, efficacy from drug e-join G <class, disease, efficacy> as T order by disease, cas"
	case "ejoin_wide_agg":
		q = "select disease, class, count(*) as n from drug e-join G <disease, class> as T group by disease, class order by disease, class"
	default:
		q = g.multiJoin
	}
	return request{Family: family, Text: q, Wire: server.Request{Op: server.OpQuery, Query: q}}
}

// ingestGen yields durable graph batches. It draws each batch from a
// private shadow of the graph and applies it there, so the stream
// tracks the store's state without ever reading it.
type ingestGen struct {
	shadow *graph.Graph
	rng    *mat.RNG
	size   int
	mixed  bool
}

func newIngestGen(in genInputs, seed uint64, size int, mixed bool) *ingestGen {
	return &ingestGen{shadow: in.G.Clone(), rng: mat.NewRNG(seed), size: size, mixed: mixed}
}

func (g *ingestGen) next() request {
	var b graph.Batch
	if g.mixed {
		b = graph.RandomMixedBatch(g.shadow, g.rng, g.size)
	} else {
		b = graph.RandomBatch(g.shadow, g.rng, g.size)
	}
	copyBatch(b).Apply(g.shadow)
	family := "ingest_edges"
	if g.mixed {
		family = "ingest_mixed"
	}
	return request{Family: family, Batch: b, Wire: server.Request{
		Op: server.OpIngest, Base: mainRel, Kind: "graph", Updates: wireUpdates(b)}}
}

// copyBatch guards a batch against Apply, which writes the assigned id
// into InsertVertex updates.
func copyBatch(b graph.Batch) graph.Batch { return append(graph.Batch(nil), b...) }

// wireUpdates renders a batch in the ingest op's wire form.
func wireUpdates(b graph.Batch) []server.IngestUpdate {
	out := make([]server.IngestUpdate, len(b))
	for i, u := range b {
		switch u.Op {
		case graph.InsertEdge:
			out[i] = server.IngestUpdate{Op: "insert_edge", From: int64(u.Edge.From), To: int64(u.Edge.To), Label: u.Edge.Label}
		case graph.DeleteEdge:
			out[i] = server.IngestUpdate{Op: "delete_edge", From: int64(u.Edge.From), To: int64(u.Edge.To), Label: u.Edge.Label}
		case graph.InsertVertex:
			out[i] = server.IngestUpdate{Op: "insert_vertex", Label: u.Label, Type: u.Type}
		case graph.DeleteVertex:
			out[i] = server.IngestUpdate{Op: "delete_vertex", From: int64(u.Edge.From)}
		}
	}
	return out
}
