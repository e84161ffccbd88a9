package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"semjoin/internal/core"
)

// Vocab is a fixture's vocabulary as the query generator sees it. The
// schema — product(pid, name, issuer, type, price, risk) and
// customer(cid, name, credit, bal), prices 60..150 and balances
// 40000..230000 — is every fixture's; the vocabulary is what differs, so
// generated predicates reference plausible data of the fixture at hand.
type Vocab struct {
	// Literal pools the fixture's rows draw from.
	Companies, Countries, Types, Risks, Credits []string
	// PID and CustomerName are the fmt formats of a product's key and a
	// customer's name, each taking the row index.
	PID, CustomerName string
	// EJoin lists the product attributes the fixture's materialisation
	// extracted (ExtractedEJoinAttrs): an e-join naming another keyword
	// would plan but fail at iterator build time. With none, the
	// generator emits no e-join.
	EJoin []string
}

// ExtractedEJoinAttrs returns the reference keywords of a base that m
// actually extracted as columns (a seed's statistical discovery may
// select fewer attributes than AR, and a keyword update may drop some).
func ExtractedEJoinAttrs(m *core.Materialized, base string) []string {
	b := m.Base(base)
	if b == nil {
		return nil
	}
	var out []string
	for _, kw := range b.AR() {
		if b.Extracted.Schema.Col(kw) >= 0 {
			out = append(out, kw)
		}
	}
	return out
}

// Gen is the seeded random generator of gSQL query strings every
// differential harness runs. It spans the implemented grammar:
// projections (including *), boolean predicates (and/or/not/between/
// in/like), distinct, group-by aggregates, order by with one to three
// keys and explicit directions, limit, cross joins, e-joins over the
// extracted attributes and l-joins (self and cross-base). Every query
// it emits must plan and execute; the harnesses treat an execution error
// as a harness bug.
type Gen struct {
	rng *rand.Rand
	v   Vocab
}

// NewGen returns a generator over v; the same seed and vocabulary always
// yield the same query sequence.
func NewGen(seed int64, v Vocab) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed)), v: v}
}

func (g *Gen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

// pred emits one atomic predicate over table (optionally qualified
// with prefix, e.g. "p." for a cross-join alias).
func (g *Gen) pred(table, prefix string) string {
	v := g.v
	if table == "product" {
		switch g.rng.Intn(8) {
		case 0:
			return fmt.Sprintf("%sprice >= %d", prefix, 60+10*g.rng.Intn(10))
		case 1:
			return fmt.Sprintf("%sprice < %d", prefix, 60+10*g.rng.Intn(10))
		case 2:
			return fmt.Sprintf("%srisk = '%s'", prefix, g.pick(v.Risks))
		case 3:
			return fmt.Sprintf("%srisk <> '%s'", prefix, g.pick(v.Risks))
		case 4:
			return fmt.Sprintf("%stype = '%s'", prefix, g.pick(v.Types))
		case 5:
			return fmt.Sprintf("%stype <> '%s'", prefix, g.pick(v.Types))
		case 6:
			return fmt.Sprintf("%sprice between %d and %d", prefix, 60+10*g.rng.Intn(4), 100+10*g.rng.Intn(5))
		default:
			pid := func(i int) string { return fmt.Sprintf(v.PID, i) }
			return fmt.Sprintf("%spid in ('%s', '%s', '%s')", prefix, pid(1), pid(3), pid(g.rng.Intn(12)))
		}
	}
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("%sbal >= %d", prefix, 40000+10000*g.rng.Intn(20))
	case 1:
		return fmt.Sprintf("%scredit = '%s'", prefix, g.pick(v.Credits))
	case 2:
		return fmt.Sprintf("%scredit <> '%s'", prefix, g.pick(v.Credits))
	case 3:
		return fmt.Sprintf("%sbal between %d and %d", prefix, 40000+10000*g.rng.Intn(5), 120000+10000*g.rng.Intn(8))
	default:
		name, _, _ := strings.Cut(v.CustomerName, "%")
		return fmt.Sprintf("%sname like '%s%%'", prefix, name)
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

// orderKeys emits one to three ORDER BY keys over cols, each with its
// own direction: mixed-direction multi-key sorts (with LIMIT cutting
// through the ties) are where a direction applied to the wrong key, or
// a reverse that undoes the minor keys' order, shows.
func (g *Gen) orderKeys(cols []string) string {
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

// Query emits one random query string.
func (g *Gen) Query() string {
	fam := g.rng.Intn(10)
	if (fam == 7 || fam == 8) && len(g.v.EJoin) == 0 {
		fam = g.rng.Intn(7) // nothing extracted: no e-join
	}
	switch fam {
	case 0, 1, 2: // plain select with optional order by / limit
		table := g.pick([]string{"product", "customer"})
		colList, kept := g.cols(table)
		q := "select " + colList + " from " + table
		if g.rng.Intn(3) > 0 {
			q += " where " + g.where(table, "")
		}
		if g.rng.Intn(2) == 0 {
			q += " order by " + g.orderKeys(kept)
		}
		if g.rng.Intn(3) == 0 {
			q += fmt.Sprintf(" limit %d", 1+g.rng.Intn(10))
		}
		return q
	case 3: // distinct on a low-cardinality column
		table := g.pick([]string{"product", "customer"})
		q := "select distinct " + g.pick(tableCols[table][2:]) + " from " + table
		if g.rng.Intn(2) == 0 {
			q += " where " + g.where(table, "")
		}
		return q
	case 4, 5: // aggregate with group by
		table, gcol, mcol := "product", "risk", "price"
		if g.rng.Intn(2) == 0 {
			table, gcol, mcol = "customer", "credit", "bal"
		} else if g.rng.Intn(2) == 0 {
			gcol = "type"
		}
		agg := g.pick([]string{
			"count(*) as n", "sum(" + mcol + ") as s", "avg(" + mcol + ") as a",
			"min(" + mcol + ") as lo", "max(" + mcol + ") as hi",
		})
		q := fmt.Sprintf("select %s, %s from %s", gcol, agg, table)
		if g.rng.Intn(2) == 0 {
			q += " where " + g.where(table, "")
		}
		q += " group by " + gcol
		if g.rng.Intn(2) == 0 {
			q += " order by " + g.orderKeys([]string{gcol})
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
	case 7, 8: // e-join over the attributes the fixture extracted
		col := g.pick(g.v.EJoin)
		q := fmt.Sprintf("select pid, %s from product e-join G <%s> as T", col, strings.Join(g.v.EJoin, ", "))
		switch g.rng.Intn(3) {
		case 0:
			q += " where T." + g.pred("product", "")
		case 1:
			// The filtered extension column is picked apart from the
			// projected one: a filter on a column the projection drops
			// is where pruning or pushdown can lose it too early.
			fcol := g.pick(g.v.EJoin)
			pool := g.v.Companies
			if fcol == "country" {
				pool = g.v.Countries
			}
			q += fmt.Sprintf(" where T.%s = '%s'", fcol, g.pick(pool))
		}
		return q
	default: // l-join: k-hop connectivity, self and cross-base
		q := "select product.pid, c2.cid from product l-join <G> customer as c2"
		table, key := "product", ""
		switch g.rng.Intn(3) {
		case 0:
			key = "pid"
		case 1:
			table, key = "customer", "cid"
		}
		if key != "" {
			q = fmt.Sprintf("select %s.%s, %s2.%s from %s l-join <Gp> %s as %s2",
				table, key, table, key, table, table, table)
		}
		if g.rng.Intn(2) == 0 {
			q += " where " + g.pred(table, table+".")
		}
		return q
	}
}
