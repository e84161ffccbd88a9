// Package difftest is a differential test harness for the gsql engine.
// It builds seeded random fintech-style fixtures (graph + base
// relations + oracle-matched materialization), generates seeded random
// queries spanning every plan family (selects with predicates, order
// by/limit/distinct, aggregates, cross joins, e-joins and l-joins),
// and runs each query on the naive reference evaluator (reference.go),
// a serial engine (Parallelism = 1) and a parallel one, checking the
// three agree.
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
	"sort"
	"strings"

	"semjoin/internal/core"
	"semjoin/internal/graph"
	"semjoin/internal/gsql"
	"semjoin/internal/her"
	"semjoin/internal/rel"
)

// Value pools shared by the fixture builder and the query generator,
// so generated predicates always reference plausible data.
var (
	poolCompanies = []string{"Acme Corp", "Globex Corp", "Initech Corp", "Umbrella Corp", "Stark Ltd"}
	poolCountries = []string{"UK", "US", "Germany", "France"}
	poolTypes     = []string{"Funds", "Stocks"}
	poolRisks     = []string{"low", "medium", "high"}
	poolCredits   = []string{"good", "fair", "poor"}
)

// Fixture is one seeded random instance of the fintech schema:
// product(pid, name, issuer, type, price, risk) and
// customer(cid, name, credit, bal) over a property graph, with the
// offline materialization the static join strategies need.
type Fixture struct {
	Seed      int64
	Cat       *gsql.Catalog
	NProducts int
	NCust     int
}

// Build constructs a fixture from seed. The same seed always yields
// the same graph, relations and materialization. Materialization
// failures (a miswired base spec) surface as errors.
func Build(seed int64) (*Fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()

	nCompanies := 3 + rng.Intn(len(poolCompanies)-2)
	companies := poolCompanies[:nCompanies]

	countryV := make([]graph.VertexID, len(poolCountries))
	for i, c := range poolCountries {
		countryV[i] = g.AddVertex(c, "country")
	}
	companyV := make([]graph.VertexID, nCompanies)
	countryOfCompany := make([]int, nCompanies)
	for i, c := range companies {
		companyV[i] = g.AddVertex(c, "company")
		countryOfCompany[i] = rng.Intn(len(poolCountries))
		g.AddEdge(companyV[i], "registered_in", countryV[countryOfCompany[i]])
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

	nProducts := 12 + rng.Intn(9)
	prodV := make([]graph.VertexID, nProducts)
	for i := 0; i < nProducts; i++ {
		pid := fmt.Sprintf("fd%d", i)
		name := fmt.Sprintf("prod %02d", i)
		ci := rng.Intn(nCompanies)
		ti := rng.Intn(len(poolTypes))
		v := g.AddVertex(name, "product")
		prodV[i] = v
		g.AddEdge(companyV[ci], "issues", v)
		g.AddEdge(v, "category", categoryV[ti])
		products.InsertVals(
			rel.S(pid), rel.S(name), rel.S(companies[ci]),
			rel.S(poolTypes[ti]), rel.I(int64(60+10*rng.Intn(10))),
			rel.S(poolRisks[rng.Intn(len(poolRisks))]))
		truth[pid] = v
	}
	nCust := 8 + rng.Intn(9)
	for i := 0; i < nCust; i++ {
		cid := fmt.Sprintf("cid%02d", i)
		name := fmt.Sprintf("person %02d", i)
		v := g.AddVertex(name, "person")
		truth[cid] = v
		for _, p := range rng.Perm(nProducts)[:1+rng.Intn(3)] {
			g.AddEdge(v, "invest", prodV[p])
		}
		customers.InsertVals(rel.S(cid), rel.S(name),
			rel.S(poolCredits[rng.Intn(len(poolCredits))]),
			rel.I(int64(40000+10000*rng.Intn(20))))
	}

	models := core.TrainModels(g, 4, uint64(seed)+11)
	oracle := her.NewOracleMatcher(truth)
	cfg := core.Config{K: 3, H: 14, Seed: uint64(seed) + 5}
	mat, err := core.BuildMaterialized(g, models, map[string]core.BaseSpec{
		"product":  {D: products, AR: []string{"company", "country"}, Matcher: oracle},
		"customer": {D: customers, AR: []string{"company", "product"}, Matcher: oracle},
	}, cfg)
	if err != nil {
		return nil, fmt.Errorf("difftest: materializing fixture %d: %w", seed, err)
	}
	profiles := core.ProfileGraph(g, models, map[string][]string{
		"product": {"company", "country"},
	}, 2, cfg)

	return &Fixture{
		Seed:      seed,
		NProducts: nProducts,
		NCust:     nCust,
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

// Gen is a seeded random query generator over the fixture schema.
type Gen struct{ rng *rand.Rand }

// NewGen returns a generator; the same seed yields the same query
// sequence.
func NewGen(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

func (g *Gen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

// pred emits one atomic predicate over table (optionally qualified
// with prefix, e.g. "p." for a cross-join alias).
func (g *Gen) pred(table, prefix string) string {
	switch table {
	case "product":
		switch g.rng.Intn(7) {
		case 0:
			return fmt.Sprintf("%sprice >= %d", prefix, 60+10*g.rng.Intn(10))
		case 1:
			return fmt.Sprintf("%sprice < %d", prefix, 60+10*g.rng.Intn(10))
		case 2:
			return fmt.Sprintf("%srisk = '%s'", prefix, g.pick(poolRisks))
		case 3:
			return fmt.Sprintf("%srisk <> '%s'", prefix, g.pick(poolRisks))
		case 4:
			return fmt.Sprintf("%stype = '%s'", prefix, g.pick(poolTypes))
		case 5:
			return fmt.Sprintf("%sprice between %d and %d", prefix, 60+10*g.rng.Intn(4), 100+10*g.rng.Intn(5))
		default:
			return fmt.Sprintf("%spid in ('fd1', 'fd3', 'fd%d')", prefix, g.rng.Intn(12))
		}
	default: // customer
		switch g.rng.Intn(5) {
		case 0:
			return fmt.Sprintf("%sbal >= %d", prefix, 40000+10000*g.rng.Intn(20))
		case 1:
			return fmt.Sprintf("%scredit = '%s'", prefix, g.pick(poolCredits))
		case 2:
			return fmt.Sprintf("%scredit <> '%s'", prefix, g.pick(poolCredits))
		case 3:
			return fmt.Sprintf("%sbal between %d and %d", prefix, 40000+10000*g.rng.Intn(5), 120000+10000*g.rng.Intn(8))
		default:
			return fmt.Sprintf("%sname like 'person%%'", prefix)
		}
	}
}

// where emits a boolean combination of 1-3 atomic predicates.
func (g *Gen) where(table, prefix string) string {
	p1 := g.pred(table, prefix)
	switch g.rng.Intn(5) {
	case 0:
		return p1
	case 1:
		return p1 + " and " + g.pred(table, prefix)
	case 2:
		return p1 + " or " + g.pred(table, prefix)
	case 3:
		return "not (" + p1 + ")"
	default:
		return p1 + " and (" + g.pred(table, prefix) + " or " + g.pred(table, prefix) + ")"
	}
}

var tableCols = map[string][]string{
	"product":  {"pid", "name", "issuer", "type", "price", "risk"},
	"customer": {"cid", "name", "credit", "bal"},
}

// cols picks a random non-empty projection list, preserving schema
// order, or "*".
func (g *Gen) cols(table string) (string, []string) {
	all := tableCols[table]
	if g.rng.Intn(3) == 0 {
		return "*", all
	}
	var kept []string
	for _, c := range all {
		if g.rng.Intn(2) == 0 {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		kept = []string{all[0]}
	}
	return strings.Join(kept, ", "), kept
}

// Query emits one random query string. Every query the generator
// emits must plan and execute successfully on both engines; the
// differential test treats an execution error as a harness bug.
func (g *Gen) Query() string {
	switch g.rng.Intn(10) {
	case 0, 1, 2: // plain select with optional order by / limit
		table := g.pick([]string{"product", "customer"})
		colList, kept := g.cols(table)
		q := "select " + colList + " from " + table
		if g.rng.Intn(3) > 0 {
			q += " where " + g.where(table, "")
		}
		if g.rng.Intn(2) == 0 {
			q += " order by " + g.pick(kept)
			if g.rng.Intn(2) == 0 {
				q += " desc"
			}
		}
		if g.rng.Intn(3) == 0 {
			q += fmt.Sprintf(" limit %d", 1+g.rng.Intn(10))
		}
		return q
	case 3: // distinct
		table := g.pick([]string{"product", "customer"})
		col := g.pick(tableCols[table][2:]) // low-cardinality columns
		q := "select distinct " + col + " from " + table
		if g.rng.Intn(2) == 0 {
			q += " where " + g.where(table, "")
		}
		return q
	case 4, 5: // aggregate with group by
		table := g.pick([]string{"product", "customer"})
		gcol, mcol := "risk", "price"
		if table == "customer" {
			gcol, mcol = "credit", "bal"
		}
		if table == "product" && g.rng.Intn(2) == 0 {
			gcol = "type"
		}
		agg := g.pick([]string{
			"count(*) as n",
			"sum(" + mcol + ") as s",
			"avg(" + mcol + ") as a",
			"min(" + mcol + ") as lo",
			"max(" + mcol + ") as hi",
		})
		q := fmt.Sprintf("select %s, %s from %s", gcol, agg, table)
		if g.rng.Intn(2) == 0 {
			q += " where " + g.where(table, "")
		}
		q += " group by " + gcol
		if g.rng.Intn(2) == 0 {
			q += " order by " + gcol
		}
		return q
	case 6: // cross join with per-side predicates
		q := fmt.Sprintf("select c.cid, p.pid from customer as c, product as p where %s and %s",
			g.where("customer", "c."), g.where("product", "p."))
		if g.rng.Intn(2) == 0 {
			q += " order by c.cid, p.pid"
		}
		if g.rng.Intn(3) == 0 {
			q += fmt.Sprintf(" limit %d", 1+g.rng.Intn(20))
		}
		return q
	case 7, 8: // e-join against the graph's extension attributes
		q := "select pid, company from product e-join G <company, country> as T"
		switch g.rng.Intn(3) {
		case 0:
			q += fmt.Sprintf(" where T.country = '%s'", g.pick(poolCountries))
		case 1:
			q += fmt.Sprintf(" where T.company = '%s'", g.pick(poolCompanies))
		}
		return q
	default: // l-join: k-hop connectivity self-join
		table := g.pick([]string{"customer", "product"})
		key := "cid"
		if table == "product" {
			key = "pid"
		}
		q := fmt.Sprintf("select %s.%s, %s2.%s from %s l-join <Gp> %s as %s2",
			table, key, table, key, table, table, table)
		if g.rng.Intn(2) == 0 {
			q += " where " + g.pred(table, table+".")
		}
		return q
	}
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
