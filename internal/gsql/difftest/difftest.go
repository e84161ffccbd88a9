// Package difftest is the differential test harness for the gsql
// engine and the one home of what every differential harness shares:
//
//   - Build: seeded random fintech-style fixtures (graph + base
//     relations + oracle-matched materialization);
//   - Gen (gen.go): the one seeded query generator, spanning every plan
//     family (selects with predicates, order by/limit/distinct,
//     aggregates, cross joins, e-joins and l-joins) over a fixture's
//     Vocab;
//   - Agree (agree.go): one query on the naive reference evaluator
//     (reference.go), a serial engine (Parallelism = 1), a parallel one,
//     and the parallel one again gL-cache-cold and cache-warm, checking
//     they all agree;
//   - RaceEngines (agree.go): N engines racing over one catalog must
//     match a lone serial engine.
//
// internal/prop runs the same generator, Agree and RaceEngines over its
// own workloads and Vocab.
//
// The order-preserving exchange makes most plans identical tuple for
// tuple, but aggregate group order depends on map iteration, so the
// harness compares bags (multisets of canonical tuple keys), which is
// the semantics SQL promises anyway.
//
// Determinism invariant: the harness must never assume anything about
// the order in which morsel-driven workers finish. The parallel
// exchange reassembles output morsels by input morsel index (an
// explicit merge step), which makes scan-rooted plans order-stable,
// but that is an implementation courtesy — not a contract. Any
// assertion added here has to go through Diff's bag comparison (or
// sort first); asserting on raw tuple positions would flake under
// -count=N whenever GOMAXPROCS, morsel size, or scheduling changes.
package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"semjoin/internal/core"
	"semjoin/internal/graph"
	"semjoin/internal/gsql"
	"semjoin/internal/her"
	"semjoin/internal/rel"
)

// Vocabulary is the difftest fixture's vocabulary: the pools Build draws
// its data from and, as e-join attributes, the product base's reference
// keywords — what its materialisation extracts at most (a Fixture's Vocab
// narrows them to what its seed extracted). Its company names are
// deliberately disjoint from internal/prop's: the two harnesses must not
// mask each other's fixtures.
var Vocabulary = Vocab{
	Companies:    []string{"Acme Corp", "Globex Corp", "Initech Corp", "Umbrella Corp", "Stark Ltd"},
	Countries:    []string{"UK", "US", "Germany", "France"},
	Types:        []string{"Funds", "Stocks"},
	Risks:        []string{"low", "medium", "high"},
	Credits:      []string{"good", "fair", "poor"},
	PID:          "fd%d",
	CustomerName: "person %02d",
	EJoin:        []string{"company", "country"},
}

// Fixture is one seeded random instance of the fintech schema:
// product(pid, name, issuer, type, price, risk) and
// customer(cid, name, credit, bal) over a property graph, with the
// offline materialization the static join strategies need.
type Fixture struct {
	Seed      int64
	Cat       *gsql.Catalog
	NProducts int
	NCust     int
	// Vocab is Vocabulary with the e-join attributes narrowed to those
	// the product base extracted: the vocabulary to generate queries
	// against this fixture with.
	Vocab Vocab
}

// Build constructs a fixture from seed. The same seed always yields
// the same graph, relations and materialization. Materialization
// failures (a miswired base spec) surface as errors.
func Build(seed int64) (*Fixture, error) {
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
	countryOfCompany := make([]int, nCompanies)
	for i, c := range companies {
		companyV[i] = g.AddVertex(c, "company")
		countryOfCompany[i] = rng.Intn(len(vocab.Countries))
		g.AddEdge(companyV[i], "registered_in", countryV[countryOfCompany[i]])
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

	nProducts := 12 + rng.Intn(9)
	prodV := make([]graph.VertexID, nProducts)
	for i := 0; i < nProducts; i++ {
		pid := fmt.Sprintf(vocab.PID, i)
		name := fmt.Sprintf("prod %02d", i)
		ci := rng.Intn(nCompanies)
		ti := rng.Intn(len(vocab.Types))
		v := g.AddVertex(name, "product")
		prodV[i] = v
		g.AddEdge(companyV[ci], "issues", v)
		g.AddEdge(v, "category", categoryV[ti])
		products.InsertVals(
			rel.S(pid), rel.S(name), rel.S(companies[ci]),
			rel.S(vocab.Types[ti]), rel.I(int64(60+10*rng.Intn(10))),
			rel.S(vocab.Risks[rng.Intn(len(vocab.Risks))]))
		truth[pid] = v
	}
	nCust := 8 + rng.Intn(9)
	for i := 0; i < nCust; i++ {
		cid := fmt.Sprintf("cid%02d", i)
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

	models := core.TrainModels(g, 4, uint64(seed)+11)
	oracle := her.NewOracleMatcher(truth)
	cfg := core.Config{K: 3, H: 14, Seed: uint64(seed) + 5}
	mat, err := core.BuildMaterialized(g, models, map[string]core.BaseSpec{
		"product":  {D: products, AR: slices.Clone(vocab.EJoin), Matcher: oracle},
		"customer": {D: customers, AR: []string{"company", "product"}, Matcher: oracle},
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("difftest: materializing fixture %d: %w", seed, err)
	}
	vocab.EJoin = ExtractedEJoinAttrs(mat, "product")
	profiles := core.ProfileGraph(g, models, map[string][]string{
		"product": {"company", "country"},
	}, 2, cfg)

	return &Fixture{
		Seed:      seed,
		NProducts: nProducts,
		NCust:     nCust,
		Vocab:     vocab,
		Cat: &gsql.Catalog{
			Relations: map[string]*rel.Relation{"product": products, "customer": customers},
			Graphs:    map[string]*graph.Graph{"G": g, "Gp": g},
			Models:    models,
			Matcher:   oracle,
			Mat:       mat,
			Heur:      core.NewHeuristicJoiner(profiles),
			K:         3,
			RExt:      core.Config{H: 14, Seed: uint64(seed) + 5},
		},
	}, nil
}

// Diff compares two relations as bags of tuples. It returns "" when
// the schemas match and every tuple occurs the same number of times
// in both, and a human-readable description of the first discrepancy
// otherwise.
func Diff(a, b *rel.Relation) string {
	if a == nil || b == nil {
		return fmt.Sprintf("nil relation: a=%v b=%v", a == nil, b == nil)
	}
	an, bn := attrNames(a.Schema), attrNames(b.Schema)
	if strings.Join(an, ",") != strings.Join(bn, ",") {
		return fmt.Sprintf("schema mismatch: %v vs %v", an, bn)
	}
	if len(a.Tuples) != len(b.Tuples) {
		return fmt.Sprintf("row count mismatch: %d vs %d", len(a.Tuples), len(b.Tuples))
	}
	counts := make(map[string]int, len(a.Tuples))
	for _, t := range a.Tuples {
		counts[tupleKey(t)]++
	}
	for _, t := range b.Tuples {
		k := tupleKey(t)
		counts[k]--
		if counts[k] < 0 {
			return fmt.Sprintf("tuple %q occurs more often in second relation", k)
		}
	}
	var leftovers []string
	for k, n := range counts {
		if n != 0 {
			leftovers = append(leftovers, k)
		}
	}
	if len(leftovers) > 0 {
		sort.Strings(leftovers)
		return fmt.Sprintf("tuples only in first relation: %v", leftovers)
	}
	return ""
}

// DiffOrder returns "" when a and b, two results of query, list the
// same ORDER BY key values row for row. Diff compares bags, which an
// ordering bug survives unless a LIMIT happens to cut through it; what
// SQL does fix is the sequence of the sort keys (rows tying on every
// key may still swap), so that is what this compares. A query without
// ORDER BY passes.
func DiffOrder(query string, a, b *rel.Relation) string {
	q, err := gsql.Parse(query)
	if err != nil {
		return err.Error()
	}
	if len(a.Tuples) != len(b.Tuples) {
		return fmt.Sprintf("row count mismatch: %d vs %d", len(a.Tuples), len(b.Tuples))
	}
	for _, key := range q.OrderBy {
		ca, cb := a.Schema.Col(key.Col), b.Schema.Col(key.Col)
		if ca < 0 || cb < 0 {
			return fmt.Sprintf("ORDER BY column %q missing from a result", key.Col)
		}
		for i := range a.Tuples {
			if va, vb := a.Tuples[i][ca], b.Tuples[i][cb]; va.Key() != vb.Key() {
				return fmt.Sprintf("row %d: %s = %v vs %v", i, key.Col, va, vb)
			}
		}
	}
	return ""
}

func attrNames(s *rel.Schema) []string {
	if s == nil {
		return nil
	}
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return names
}

// tupleKey canonicalizes one tuple: the concatenation of each value's
// Key() with an unprintable separator.
func tupleKey(t rel.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.Key()
	}
	return strings.Join(parts, "\x1f")
}
