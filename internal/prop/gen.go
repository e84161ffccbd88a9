// Package prop is the metamorphic correctness harness for semantic
// joins: seeded random workloads (graphs, relations, keyword sets,
// update streams, gSQL query strings) checked against a bank of
// property-based oracles —
//
//  1. IncExt over a random ΔG/ΔD/keyword stream must equal a fresh
//     extraction on the final state (oracle_incext.go);
//  2. serial, parallel, gL-cache-cold and cache-warm executions of one
//     query must be bag-equal (oracle_exec.go);
//  3. well-behaved gSQL rewrites must match direct enrichment/link-join
//     evaluation computed outside the engine (oracle_rewrite.go);
//  4. persistence round-trips must be behaviour-preserving
//     (oracle_persist.go);
//  5. the naive reference evaluator and the engine, serial and
//     parallel, must be bag-equal on one query (oracle_reference.go);
//  6. concurrent engines racing over one catalog must match a lone
//     serial engine (oracle_concurrent.go);
//  7. reads over a WAL-backed store after every step of an update
//     stream — gL-cache-warm and cache-cold — must equal the same reads
//     over a materialisation built from scratch on the current (D, G)
//     (oracle_fresh.go);
//  8. a WAL-backed store crashing mid-stream and recovering must end
//     in the state of an uninterrupted run (oracle_crash.go).
//
// Every run is deterministic in its seed. A failing seed shrinks
// automatically (prop.go) and prints a one-line PROP_SEED=<n> replay
// recipe; `go test ./internal/prop` runs a short default budget,
// raised with -prop.rounds.
package prop

import (
	"fmt"
	"math/rand"
	"strings"

	"semjoin/internal/core"
	"semjoin/internal/embed"
	"semjoin/internal/graph"
	"semjoin/internal/gsql"
	"semjoin/internal/her"
	"semjoin/internal/mat"
	"semjoin/internal/rel"
)

// Value pools shared by the workload builder and the query generator,
// so generated predicates reference plausible data. Deliberately
// disjoint from internal/gsql/difftest's pools: the two harnesses
// must not mask each other's fixtures.
var (
	poolCompanies = []string{"Vertex Holdings", "Nimbus Capital", "Orchid Group", "Quarry Partners", "Helix Trust"}
	poolCountries = []string{"UK", "US", "Japan", "Brazil"}
	poolTypes     = []string{"Funds", "Stocks"}
	poolRisks     = []string{"low", "medium", "high"}
	poolCredits   = []string{"good", "fair", "poor"}
	poolKeywords  = []string{"company", "country", "category"}
)

// Workload is one seeded random instance of the harness schema —
// product(pid, name, issuer, type, price, risk) and customer(cid,
// name, credit, bal) over a property graph with oracle ground truth.
// The models use the character embedder with random path extension
// (no LSTM/GloVe training), so building a workload costs milliseconds
// while still exercising every extraction code path.
type Workload struct {
	Seed     int64
	G        *graph.Graph
	Products *rel.Relation
	// Master is Products followed by two reserve rows: products G holds
	// and HER can align, but absent from D when the bases are built.
	// Update streams toggle membership over Master, so a ΔD step can add
	// a tuple no match relation has held before.
	Master    *rel.Relation
	Customers *rel.Relation
	Truth     map[string]graph.VertexID
	Matcher   *her.OracleMatcher
	Models    core.Models
	Cfg       core.Config // template: K, H, Seed
	AR        []string    // reference keywords of the product base
}

// NewWorkload builds the workload for seed. The same seed always
// yields the same graph, relations and ground truth.
func NewWorkload(seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()

	nCompanies := 3 + rng.Intn(len(poolCompanies)-2)
	companies := poolCompanies[:nCompanies]

	countryV := make([]graph.VertexID, len(poolCountries))
	for i, c := range poolCountries {
		countryV[i] = g.AddVertex(c, "country")
	}
	companyV := make([]graph.VertexID, nCompanies)
	for i, c := range companies {
		companyV[i] = g.AddVertex(c, "company")
		g.AddEdge(companyV[i], "registered_in", countryV[rng.Intn(len(poolCountries))])
	}
	categoryV := make([]graph.VertexID, len(poolTypes))
	for i, c := range poolTypes {
		categoryV[i] = g.AddVertex(c, "category")
	}

	products := rel.NewRelation(rel.NewSchema("product", "pid",
		rel.Attribute{Name: "pid", Type: rel.KindString},
		rel.Attribute{Name: "name", Type: rel.KindString},
		rel.Attribute{Name: "issuer", Type: rel.KindString},
		rel.Attribute{Name: "type", Type: rel.KindString},
		rel.Attribute{Name: "price", Type: rel.KindInt},
		rel.Attribute{Name: "risk", Type: rel.KindString},
	))
	customers := rel.NewRelation(rel.NewSchema("customer", "cid",
		rel.Attribute{Name: "cid", Type: rel.KindString},
		rel.Attribute{Name: "name", Type: rel.KindString},
		rel.Attribute{Name: "credit", Type: rel.KindString},
		rel.Attribute{Name: "bal", Type: rel.KindInt},
	))
	truth := map[string]graph.VertexID{}

	// addProduct creates product i — vertex, edges, ground truth — and
	// appends its tuple to into.
	addProduct := func(i int, into *rel.Relation) graph.VertexID {
		pid := fmt.Sprintf("pp%d", i)
		name := fmt.Sprintf("asset %02d", i)
		ci := rng.Intn(nCompanies)
		ti := rng.Intn(len(poolTypes))
		v := g.AddVertex(name, "product")
		g.AddEdge(companyV[ci], "issues", v)
		g.AddEdge(v, "category", categoryV[ti])
		into.InsertVals(
			rel.S(pid), rel.S(name), rel.S(companies[ci]),
			rel.S(poolTypes[ti]), rel.I(int64(60+10*rng.Intn(10))),
			rel.S(poolRisks[rng.Intn(len(poolRisks))]))
		truth[pid] = v
		return v
	}
	nProducts := 8 + rng.Intn(7)
	prodV := make([]graph.VertexID, nProducts)
	for i := range prodV {
		prodV[i] = addProduct(i, products)
	}
	nCust := 5 + rng.Intn(5)
	for i := 0; i < nCust; i++ {
		cid := fmt.Sprintf("cc%02d", i)
		name := fmt.Sprintf("client %02d", i)
		v := g.AddVertex(name, "person")
		truth[cid] = v
		for _, p := range rng.Perm(nProducts)[:1+rng.Intn(3)] {
			g.AddEdge(v, "invest", prodV[p])
		}
		customers.InsertVals(rel.S(cid), rel.S(name),
			rel.S(poolCredits[rng.Intn(len(poolCredits))]),
			rel.I(int64(40000+10000*rng.Intn(20))))
	}
	master := rel.NewRelation(products.Schema)
	master.Tuples = append(master.Tuples, products.Tuples...)
	for i := nProducts; i < nProducts+2; i++ {
		addProduct(i, master)
	}

	return &Workload{
		Seed:      seed,
		G:         g,
		Products:  products,
		Master:    master,
		Customers: customers,
		Truth:     truth,
		Matcher:   her.NewOracleMatcher(truth),
		Models:    core.Models{Word: embed.NewCharEmbedder(32, uint64(seed)+17), RandomPaths: true},
		Cfg:       core.Config{K: 3, H: 10, Seed: uint64(seed) + 5},
		AR:        []string{"company", "country"},
	}
}

// Materialize runs the offline pre-computation for both bases.
func (w *Workload) Materialize() (*core.Materialized, error) {
	return core.BuildMaterialized(w.G, w.Models, map[string]core.BaseSpec{
		"product":  {D: w.Products, AR: w.AR, Matcher: w.Matcher},
		"customer": {D: w.Customers, AR: []string{"company", "product"}, Matcher: w.Matcher},
	}, w.Cfg)
}

// Catalog builds the gsql catalog the engine oracles run against.
func (w *Workload) Catalog() (*gsql.Catalog, error) {
	m, err := w.Materialize()
	if err != nil {
		return nil, err
	}
	return w.catalogOver(m, w.Products), nil
}

// catalogOver binds a catalog to materialisation m, with products as
// the product relation.
func (w *Workload) catalogOver(m *core.Materialized, products *rel.Relation) *gsql.Catalog {
	g := m.View().G
	return &gsql.Catalog{
		Relations: map[string]*rel.Relation{"product": products, "customer": w.Customers},
		Graphs:    map[string]*graph.Graph{"G": g, "Gp": g},
		Models:    w.Models,
		Matcher:   w.Matcher,
		Mat:       m,
		K:         w.Cfg.K,
		RExt:      core.Config{H: w.Cfg.H, Seed: w.Cfg.Seed},
	}
}

// ------------------------------------------------------------- streams

// StepKind is the flavour of one update-stream step.
type StepKind int

const (
	// StepGraph applies a ΔG batch through IncExt.
	StepGraph StepKind = iota
	// StepRelation toggles rows of the reference relation (ΔD).
	StepRelation
	// StepKeywords changes the user's interest set A.
	StepKeywords
)

// Step is one element of an update stream. Relation steps carry
// selectors rather than concrete rows: Remove picks among the rows
// currently present (modulo their count), Restore among the rows
// currently absent — so a stream remains applicable, and deterministic,
// after a shrinker has dropped arbitrary prefixes of it.
type Step struct {
	Kind     StepKind
	Batch    graph.Batch // StepGraph
	Remove   []int       // StepRelation: selectors into present rows
	Restore  []int       // StepRelation: selectors into absent rows
	Keywords []string    // StepKeywords
}

func (s Step) String() string {
	switch s.Kind {
	case StepGraph:
		return fmt.Sprintf("graph(%d updates)", len(s.Batch))
	case StepRelation:
		return fmt.Sprintf("relation(remove %v, restore %v)", s.Remove, s.Restore)
	default:
		return fmt.Sprintf("keywords(%s)", strings.Join(s.Keywords, ","))
	}
}

// Stream is an ordered update stream; the unit the shrinker minimises.
type Stream []Step

func (s Stream) String() string {
	parts := make([]string, len(s))
	for i, st := range s {
		parts[i] = fmt.Sprintf("  %2d: %s", i, st)
	}
	return strings.Join(parts, "\n")
}

// Updates counts the individual graph updates across the stream.
func (s Stream) Updates() int {
	n := 0
	for _, st := range s {
		n += len(st.Batch)
	}
	return n
}

// GenStream generates an n-step update stream for the workload,
// deterministically in the workload seed. Graph batches are generated
// against a scratch copy of the graph that evolves with the stream, so
// later steps reference vertices and edges that plausibly exist; if a
// shrinker drops earlier steps, later batches degrade gracefully
// (Batch.Apply skips operations on non-live endpoints).
func (w *Workload) GenStream(n int) Stream {
	rng := rand.New(rand.NewSource(w.Seed ^ 0x517ea11))
	mrng := mat.NewRNG(uint64(w.Seed) + 0xb10b)
	scratch := w.G.Clone()
	var steps Stream
	for len(steps) < n {
		switch rng.Intn(5) {
		case 0, 1, 2: // ΔG, biased: the graph path has the most to get wrong
			b := graph.RandomMixedBatch(scratch, mrng, 1+rng.Intn(4))
			if b == nil {
				continue
			}
			b.Apply(scratch)
			steps = append(steps, Step{Kind: StepGraph, Batch: b})
		case 3: // ΔD membership toggles
			st := Step{Kind: StepRelation}
			for i := rng.Intn(3); i > 0; i-- {
				st.Remove = append(st.Remove, rng.Intn(1<<16))
			}
			for i := rng.Intn(3); i > 0; i-- {
				st.Restore = append(st.Restore, rng.Intn(1<<16))
			}
			if len(st.Remove) == 0 && len(st.Restore) == 0 {
				st.Remove = []int{rng.Intn(1 << 16)}
			}
			steps = append(steps, st)
		default: // keyword change
			var kws []string
			for _, kw := range poolKeywords {
				if rng.Intn(2) == 0 {
					kws = append(kws, kw)
				}
			}
			if len(kws) == 0 {
				kws = []string{poolKeywords[rng.Intn(len(poolKeywords))]}
			}
			steps = append(steps, Step{Kind: StepKeywords, Keywords: kws})
		}
	}
	return steps
}

// --------------------------------------------------------- query strings

// QueryGen is a seeded random generator of gSQL query strings over the
// workload schema, spanning the implemented grammar: projections,
// boolean predicates (and/or/not/between/in/like), distinct, group-by
// aggregates, order by/limit, cross joins, e-joins and l-joins. Every
// emitted query must plan and execute; the oracles treat an execution
// error as a harness bug. ejoinAttrs restricts e-joins to attributes
// the materialisation actually extracted for this seed — keywords
// outside it would plan but fail at iterator build time.
type QueryGen struct {
	rng        *rand.Rand
	ejoinAttrs []string
}

// NewQueryGen returns a generator; the same seed yields the same query
// sequence. ejoinAttrs are the extracted attributes available for
// e-join queries (possibly empty).
func NewQueryGen(seed int64, ejoinAttrs []string) *QueryGen {
	return &QueryGen{rng: rand.New(rand.NewSource(seed)), ejoinAttrs: ejoinAttrs}
}

func (g *QueryGen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

func (g *QueryGen) pred(table, prefix string) string {
	if table == "product" {
		switch g.rng.Intn(6) {
		case 0:
			return fmt.Sprintf("%sprice >= %d", prefix, 60+10*g.rng.Intn(10))
		case 1:
			return fmt.Sprintf("%sprice < %d", prefix, 60+10*g.rng.Intn(10))
		case 2:
			return fmt.Sprintf("%srisk = '%s'", prefix, g.pick(poolRisks))
		case 3:
			return fmt.Sprintf("%stype <> '%s'", prefix, g.pick(poolTypes))
		case 4:
			return fmt.Sprintf("%sprice between %d and %d", prefix, 60+10*g.rng.Intn(4), 100+10*g.rng.Intn(5))
		default:
			return fmt.Sprintf("%spid in ('pp1', 'pp3', 'pp%d')", prefix, g.rng.Intn(8))
		}
	}
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%sbal >= %d", prefix, 40000+10000*g.rng.Intn(20))
	case 1:
		return fmt.Sprintf("%scredit = '%s'", prefix, g.pick(poolCredits))
	case 2:
		return fmt.Sprintf("%scredit <> '%s'", prefix, g.pick(poolCredits))
	default:
		return fmt.Sprintf("%sname like 'client%%'", prefix)
	}
}

func (g *QueryGen) where(table, prefix string) string {
	p1 := g.pred(table, prefix)
	switch g.rng.Intn(4) {
	case 0:
		return p1
	case 1:
		return p1 + " and " + g.pred(table, prefix)
	case 2:
		return p1 + " or " + g.pred(table, prefix)
	default:
		return "not (" + p1 + ")"
	}
}

// orderKeys emits one to three ORDER BY keys over cols, each with its
// own direction: mixed-direction multi-key sorts (with LIMIT cutting
// through the ties) are where a direction applied to the wrong key, or
// a reverse that undoes the minor keys' order, shows.
func (g *QueryGen) orderKeys(cols []string) string {
	n := 1 + g.rng.Intn(min(3, len(cols)))
	keys := make([]string, n)
	for i, c := range g.rng.Perm(len(cols))[:n] {
		keys[i] = cols[c]
		switch g.rng.Intn(3) {
		case 0:
			keys[i] += " desc"
		case 1:
			keys[i] += " asc"
		}
	}
	return strings.Join(keys, ", ")
}

var genCols = map[string][]string{
	"product":  {"pid", "name", "issuer", "type", "price", "risk"},
	"customer": {"cid", "name", "credit", "bal"},
}

// Query emits one random query string.
func (g *QueryGen) Query() string {
	fam := g.rng.Intn(10)
	if fam >= 7 && len(g.ejoinAttrs) == 0 {
		fam = g.rng.Intn(7) // no extracted attrs this seed: skip e-joins
	}
	switch fam {
	case 0, 1, 2: // plain select
		table := g.pick([]string{"product", "customer"})
		all := genCols[table]
		var kept []string
		for _, c := range all {
			if g.rng.Intn(2) == 0 {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			kept = all
		}
		q := "select " + strings.Join(kept, ", ") + " from " + table
		if g.rng.Intn(3) > 0 {
			q += " where " + g.where(table, "")
		}
		if g.rng.Intn(2) == 0 {
			q += " order by " + g.orderKeys(kept)
		}
		if g.rng.Intn(3) == 0 {
			q += fmt.Sprintf(" limit %d", 1+g.rng.Intn(8))
		}
		return q
	case 3: // distinct on a low-cardinality column
		if g.rng.Intn(2) == 0 {
			return "select distinct risk from product"
		}
		return "select distinct credit from customer where " + g.where("customer", "")
	case 4, 5: // aggregates
		table, gcol, mcol := "product", "risk", "price"
		if g.rng.Intn(2) == 0 {
			table, gcol, mcol = "customer", "credit", "bal"
		}
		agg := g.pick([]string{
			"count(*) as n", "sum(" + mcol + ") as s", "avg(" + mcol + ") as a",
			"min(" + mcol + ") as lo", "max(" + mcol + ") as hi",
		})
		q := fmt.Sprintf("select %s, %s from %s", gcol, agg, table)
		if g.rng.Intn(2) == 0 {
			q += " where " + g.where(table, "")
		}
		return q + " group by " + gcol
	case 6: // cross join
		q := fmt.Sprintf("select c.cid, p.pid from customer as c, product as p where %s and %s",
			g.where("customer", "c."), g.where("product", "p."))
		if g.rng.Intn(2) == 0 {
			q += " order by c.cid, p.pid"
		}
		return q
	case 7, 8: // e-join over the attrs this seed extracted
		a := g.ejoinAttrs
		col := g.pick(a)
		q := fmt.Sprintf("select pid, %s from product e-join G <%s> as T", col, strings.Join(a, ", "))
		switch g.rng.Intn(3) {
		case 0:
			q += " where T." + g.pred("product", "")
		case 1:
			if col == "country" {
				q += fmt.Sprintf(" where T.country = '%s'", g.pick(poolCountries))
			} else {
				q += fmt.Sprintf(" where T.%s = '%s'", col, g.pick(poolCompanies))
			}
		}
		return q
	default: // l-join: self and cross-base
		switch g.rng.Intn(3) {
		case 0:
			q := "select product.pid, product2.pid from product l-join <Gp> product as product2"
			if g.rng.Intn(2) == 0 {
				q += " where " + g.pred("product", "product.")
			}
			return q
		case 1:
			q := "select customer.cid, customer2.cid from customer l-join <Gp> customer as customer2"
			if g.rng.Intn(2) == 0 {
				q += " where " + g.pred("customer", "customer.")
			}
			return q
		default:
			q := "select product.pid, c2.cid from product l-join <G> customer as c2"
			if g.rng.Intn(2) == 0 {
				q += " where " + g.pred("product", "product.")
			}
			return q
		}
	}
}
