package prop

import (
	"fmt"
	"math/rand"
	"strings"

	"semjoin/internal/core"
	"semjoin/internal/graph"
	"semjoin/internal/gsql"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/her"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// Pred is a structured atomic predicate over a base-relation column.
// It renders to gSQL (for the engine route) and evaluates directly on
// tuples (for the ground-truth route), so both routes share one
// semantics by construction.
type Pred struct {
	Col   string
	Op    string // "=", "<>", ">=", "<"
	Str   string // operand for string comparisons
	Num   int64  // operand for numeric comparisons
	IsNum bool
}

// SQL renders the predicate with the given column prefix (e.g. "T.").
func (p Pred) SQL(prefix string) string {
	if p.IsNum {
		return fmt.Sprintf("%s%s %s %d", prefix, p.Col, p.Op, p.Num)
	}
	return fmt.Sprintf("%s%s %s '%s'", prefix, p.Col, p.Op, p.Str)
}

// Match evaluates the predicate against one value of its column.
func (p Pred) Match(v rel.Value) bool {
	switch p.Op {
	case "=":
		return v.String() == p.Str
	case "<>":
		return v.String() != p.Str
	case ">=":
		return v.Int() >= p.Num
	default: // "<"
		return v.Int() < p.Num
	}
}

// randProductPred draws a predicate over the product base columns.
func randProductPred(rng *rand.Rand) Pred {
	switch rng.Intn(4) {
	case 0:
		return Pred{Col: "risk", Op: "=", Str: Vocabulary.Risks[rng.Intn(len(Vocabulary.Risks))]}
	case 1:
		return Pred{Col: "type", Op: "<>", Str: Vocabulary.Types[rng.Intn(len(Vocabulary.Types))]}
	case 2:
		return Pred{Col: "price", Op: ">=", Num: int64(60 + 10*rng.Intn(10)), IsNum: true}
	default:
		return Pred{Col: "price", Op: "<", Num: int64(60 + 10*rng.Intn(10)), IsNum: true}
	}
}

// rewriteRoundsPerSeed is how many predicate/keyword draws one seed
// checks for each join flavour.
const rewriteRoundsPerSeed = 3

// CheckRewrite is oracle 3: a gSQL e-join (l-join) query must return
// exactly what direct evaluation of the enrichment (link) join
// semantics computes outside the engine — S ⋈ f(D,G) ⋈ h(D,G) read
// straight off the materialised relations for e-joins; brute-force
// pairwise k-hop connectivity, cross-checked against core.LinkJoin's
// online evaluation, for l-joins.
func CheckRewrite(seed int64, _ Stream) error {
	w := NewWorkload(seed)
	cat, err := w.Catalog()
	if err != nil {
		return fmt.Errorf("harness: catalog: %w", err)
	}
	eng := gsql.NewEngine(cat)
	eng.Obs = obs.NewRegistry()
	rng := rand.New(rand.NewSource(seed ^ 0x3e3a7))
	for i := 0; i < rewriteRoundsPerSeed; i++ {
		if err := checkEJoinRewrite(w, cat, eng, rng); err != nil {
			return err
		}
		if err := checkLJoinRewrite(w, cat, eng, rng); err != nil {
			return err
		}
	}
	return nil
}

// checkEJoinRewrite compares the engine's answer to a well-behaved
// e-join against the three-way reduction computed by hand from the
// materialised f(D,G) and h(D,G).
func checkEJoinRewrite(w *Workload, cat *gsql.Catalog, eng *gsql.Engine, rng *rand.Rand) error {
	avail := difftest.ExtractedEJoinAttrs(cat.Mat, "product")
	if len(avail) == 0 {
		return nil // this seed's discovery extracted none of AR; nothing to rewrite
	}
	a := avail
	if len(a) > 1 && rng.Intn(2) == 0 {
		a = a[:1+rng.Intn(len(a)-1)]
	}
	var pred *Pred
	if rng.Intn(2) == 0 {
		p := randProductPred(rng)
		pred = &p
	}
	q := fmt.Sprintf("select pid, name, issuer, type, price, risk, vid, %s from product e-join G <%s> as T",
		strings.Join(a, ", "), strings.Join(a, ", "))
	if pred != nil {
		q += " where " + pred.SQL("T.")
	}
	got, err := eng.Query(q)
	if err != nil {
		return fmt.Errorf("harness: e-join %q: %w", q, err)
	}

	b := cat.Mat.Base("product")
	vidToExt := map[int64]rel.Tuple{}
	extVid := b.Extracted.Schema.Col("vid")
	for _, t := range b.Extracted.Tuples {
		vidToExt[t[extVid].Int()] = t
	}
	pidToVid := map[string]int64{}
	f := b.Extractor.MatchRelation()
	mKey := f.Schema.Col("pid")
	mVid := f.Schema.Col("vid")
	for _, t := range f.Tuples {
		pidToVid[t[mKey].String()] = t[mVid].Int()
	}

	var want []rel.Tuple
	pidCol := w.Products.Schema.Col("pid")
	for _, t := range w.Products.Tuples {
		vid, ok := pidToVid[t[pidCol].String()]
		if !ok {
			continue // unmatched tuples drop out of S ⋈ f(D,G)
		}
		ext, ok := vidToExt[vid]
		if !ok {
			continue
		}
		if pred != nil && !pred.Match(t[w.Products.Schema.Col(pred.Col)]) {
			continue
		}
		row := append(append(rel.Tuple{}, t...), rel.I(vid))
		for _, col := range a {
			row = append(row, ext[b.Extracted.Schema.Col(col)])
		}
		want = append(want, row)
	}
	if d := bagDiff(got, want); d != "" {
		return fmt.Errorf("e-join rewrite %q diverged from direct S ⋈ f ⋈ h evaluation: %s", q, d)
	}
	return nil
}

// checkLJoinRewrite compares the engine's l-join answer against (a)
// brute-force pairwise WithinKHops over the oracle matches and (b)
// core.LinkJoin's online evaluation of the same join.
func checkLJoinRewrite(w *Workload, cat *gsql.Catalog, eng *gsql.Engine, rng *rand.Rand) error {
	var pred *Pred
	if rng.Intn(2) == 0 {
		p := randProductPred(rng)
		pred = &p
	}
	q := "select product.pid, c2.cid from product l-join <G> customer as c2"
	if pred != nil {
		q += " where " + pred.SQL("product.")
	}
	got, err := eng.Query(q)
	if err != nil {
		return fmt.Errorf("harness: l-join %q: %w", q, err)
	}

	// Route A: brute force. Two tuples join iff their matched vertices
	// are within K hops (bidirectional BFS — a different implementation
	// than the engine's per-source k-hop expansion).
	prodMatch := matchMap(w.Products, w.G, w.Matcher)
	custMatch := matchMap(w.Customers, w.G, w.Matcher)
	pidCol := w.Products.Schema.Col("pid")
	cidCol := w.Customers.Schema.Col("cid")
	var want []rel.Tuple
	for _, pt := range w.Products.Tuples {
		if pred != nil && !pred.Match(pt[w.Products.Schema.Col(pred.Col)]) {
			continue
		}
		pv, ok := prodMatch[pt[pidCol].String()]
		if !ok {
			continue
		}
		for _, ct := range w.Customers.Tuples {
			cv, ok := custMatch[ct[cidCol].String()]
			if !ok {
				continue
			}
			if w.G.WithinKHops(pv, cv, cat.K) >= 0 {
				want = append(want, rel.Tuple{pt[pidCol], ct[cidCol]})
			}
		}
	}
	if d := bagDiff(got, want); d != "" {
		return fmt.Errorf("l-join rewrite %q diverged from brute-force connectivity: %s", q, d)
	}

	// Route B: core.LinkJoin, the conceptual-level online evaluation.
	lj, err := core.LinkJoin(w.Products, rel.Rename(w.Customers, "c2"), w.G, w.Matcher, cat.K)
	if err != nil {
		return fmt.Errorf("harness: core.LinkJoin: %w", err)
	}
	ljPid := lj.Schema.Col("product.pid")
	ljCid := lj.Schema.Col("c2.cid")
	var fromLJ []rel.Tuple
	for _, t := range lj.Tuples {
		if pred != nil && !pred.Match(t[lj.Schema.Col("product."+pred.Col)]) {
			continue
		}
		fromLJ = append(fromLJ, rel.Tuple{t[ljPid], t[ljCid]})
	}
	if d := bagDiff(got, fromLJ); d != "" {
		return fmt.Errorf("l-join rewrite %q diverged from core.LinkJoin: %s", q, d)
	}
	return nil
}

// matchMap resolves each tuple key to its matched vertex via the HER
// matcher (first match wins, mirroring the extractor's tie-break).
func matchMap(s *rel.Relation, g *graph.Graph, m her.Matcher) map[string]graph.VertexID {
	out := map[string]graph.VertexID{}
	for _, mt := range m.Match(s, g) {
		if _, ok := out[mt.TID.String()]; !ok {
			out[mt.TID.String()] = mt.Vertex
		}
	}
	return out
}

// bagDiff compares got's tuples against want as bags of canonical tuple
// keys, ignoring schema names (the two sides are built with the same
// column order by construction). It returns "" on equality.
func bagDiff(got *rel.Relation, want []rel.Tuple) string {
	if got == nil {
		return "nil relation from engine"
	}
	if len(got.Tuples) != len(want) {
		return fmt.Sprintf("row count mismatch: engine %d vs direct %d", len(got.Tuples), len(want))
	}
	counts := make(map[string]int, len(want))
	for _, t := range want {
		counts[tupleKey(t)]++
	}
	for _, t := range got.Tuples {
		k := tupleKey(t)
		counts[k]--
		if counts[k] < 0 {
			return fmt.Sprintf("tuple %q appears more often in the engine result", k)
		}
	}
	return ""
}

func tupleKey(t rel.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.Key()
	}
	return strings.Join(parts, "\x1f")
}
