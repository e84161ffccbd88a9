// Package prop is the metamorphic correctness harness for semantic
// joins: seeded random workloads (graphs, relations, keyword sets,
// update streams, gSQL query strings) checked against a bank of eight
// property-based oracle families —
//
//  1. IncExt over a random ΔG/ΔD/keyword stream must equal a fresh
//     extraction on the final state (oracle_incext.go);
//  2. the naive reference evaluator and serial, parallel, gL-cache-cold
//     and cache-warm executions of one query must be bag-equal, with the
//     ORDER BY keys in one sequence (oracle_exec.go);
//  3. well-behaved gSQL rewrites must match direct enrichment/link-join
//     evaluation computed outside the engine (oracle_rewrite.go);
//  4. persistence round-trips must be behaviour-preserving
//     (oracle_persist.go);
//  6. concurrent engines racing over one catalog must match a lone
//     serial engine (oracle_concurrent.go);
//  7. reads over a WAL-backed store after every step of an update
//     stream — gL-cache-warm and cache-cold — must equal the same reads
//     over a materialisation built from scratch on the current (D, G)
//     (oracle_fresh.go);
//  8. a WAL-backed store crashing mid-stream and recovering must end
//     in the state of an uninterrupted run (oracle_crash.go);
//  9. reads racing an update stream must each equal the same read over
//     a materialisation built from scratch on the WAL prefix it reports
//     (oracle_isolation.go).
//
// Number 5 (reference evaluator vs engine) is folded into 2 and not
// reused. Oracles 2 and 6 run internal/gsql/difftest's one query
// generator over this package's Vocabulary, through difftest.Agree and
// difftest.RaceEngines — the same routines the difftest fixtures run.
//
// The stores of oracles 7–9 keep the workload's one graph domain: the
// graph and both bases over it, with relation and keyword steps for
// either base.
//
// Every run is deterministic in its seed. A failing seed shrinks
// automatically (prop.go) and prints a one-line PROP_SEED=<n> replay
// recipe; `go test ./internal/prop` runs a short default budget,
// raised with -prop.rounds.
package prop

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"semjoin/internal/core"
	"semjoin/internal/embed"
	"semjoin/internal/graph"
	"semjoin/internal/gsql"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/her"
	"semjoin/internal/mat"
	"semjoin/internal/rel"
)

// Vocabulary is the workload's vocabulary: the pools NewWorkload draws
// its data from, and as e-join attributes the product base's reference
// keywords — what its materialisation extracts at most; the oracles
// narrow it to what a seed extracted (difftest.ExtractedEJoinAttrs).
// Its company names are deliberately disjoint from
// internal/gsql/difftest's: the two harnesses must not mask each other's
// fixtures.
var Vocabulary = difftest.Vocab{
	Companies:    []string{"Vertex Holdings", "Nimbus Capital", "Orchid Group", "Quarry Partners", "Helix Trust"},
	Countries:    []string{"UK", "US", "Japan", "Brazil"},
	Types:        []string{"Funds", "Stocks"},
	Risks:        []string{"low", "medium", "high"},
	Credits:      []string{"good", "fair", "poor"},
	PID:          "pp%d",
	CustomerName: "client %02d",
	EJoin:        []string{"company", "country"},
}

// poolKeywords are the keywords a keyword step draws its interest set
// from.
var poolKeywords = []string{"company", "country", "category"}

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
	vocab := Vocabulary
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()

	nCompanies := 3 + rng.Intn(len(vocab.Companies)-2)
	companies := vocab.Companies[:nCompanies]

	countryV := make([]graph.VertexID, len(vocab.Countries))
	for i, c := range vocab.Countries {
		countryV[i] = g.AddVertex(c, "country")
	}
	companyV := make([]graph.VertexID, nCompanies)
	for i, c := range companies {
		companyV[i] = g.AddVertex(c, "company")
		g.AddEdge(companyV[i], "registered_in", countryV[rng.Intn(len(vocab.Countries))])
	}
	categoryV := make([]graph.VertexID, len(vocab.Types))
	for i, c := range vocab.Types {
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
		pid := fmt.Sprintf(vocab.PID, i)
		name := fmt.Sprintf("asset %02d", i)
		ci := rng.Intn(nCompanies)
		ti := rng.Intn(len(vocab.Types))
		v := g.AddVertex(name, "product")
		g.AddEdge(companyV[ci], "issues", v)
		g.AddEdge(v, "category", categoryV[ti])
		into.InsertVals(
			rel.S(pid), rel.S(name), rel.S(companies[ci]),
			rel.S(vocab.Types[ti]), rel.I(int64(60+10*rng.Intn(10))),
			rel.S(vocab.Risks[rng.Intn(len(vocab.Risks))]))
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
		name := fmt.Sprintf(vocab.CustomerName, i)
		v := g.AddVertex(name, "person")
		truth[cid] = v
		for _, p := range rng.Perm(nProducts)[:1+rng.Intn(3)] {
			g.AddEdge(v, "invest", prodV[p])
		}
		customers.InsertVals(rel.S(cid), rel.S(name),
			rel.S(vocab.Credits[rng.Intn(len(vocab.Credits))]),
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
		AR:        slices.Clone(vocab.EJoin),
	}
}

// Materialize runs the offline pre-computation for both bases.
func (w *Workload) Materialize() (*core.Materialized, error) {
	return core.BuildMaterialized(w.G, w.Models, w.specs(), w.Cfg)
}

// specs are the workload's two bases.
func (w *Workload) specs() map[string]core.BaseSpec {
	return map[string]core.BaseSpec{
		"product":  {D: w.Products, AR: w.AR, Matcher: w.Matcher},
		"customer": {D: w.Customers, AR: []string{"company", "product"}, Matcher: w.Matcher},
	}
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
// after a shrinker has dropped arbitrary prefixes of it. A graph step
// changes the graph every base extracts over; a relation or keyword step
// changes one base, Base.
type Step struct {
	Kind     StepKind
	Batch    graph.Batch // StepGraph
	Base     string      // StepRelation, StepKeywords: "product" or "customer"
	Remove   []int       // StepRelation: selectors into present rows
	Restore  []int       // StepRelation: selectors into absent rows
	Keywords []string    // StepKeywords
}

func (s Step) String() string {
	switch s.Kind {
	case StepGraph:
		return fmt.Sprintf("graph(%d updates)", len(s.Batch))
	case StepRelation:
		return fmt.Sprintf("relation %s(remove %v, restore %v)", s.Base, s.Remove, s.Restore)
	default:
		return fmt.Sprintf("keywords %s(%s)", s.Base, strings.Join(s.Keywords, ","))
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
// (Batch.Apply skips operations on non-live endpoints). Relation and
// keyword steps go to either base; which one is drawn from a generator of
// its own, so the steps are those of a one-base stream.
func (w *Workload) GenStream(n int) Stream {
	rng := rand.New(rand.NewSource(w.Seed ^ 0x517ea11))
	mrng := mat.NewRNG(uint64(w.Seed) + 0xb10b)
	brng := rand.New(rand.NewSource(w.Seed ^ 0xba5e))
	base := func() string { return [2]string{"product", "customer"}[brng.Intn(2)] }
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
			st := Step{Kind: StepRelation, Base: base()}
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
			steps = append(steps, Step{Kind: StepKeywords, Base: base(), Keywords: kws})
		}
	}
	return steps
}
