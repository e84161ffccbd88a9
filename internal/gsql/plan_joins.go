// Planning of the semantic joins: strategy choice per §IV (static over
// the materialisation, heuristic, conceptual baseline) and link-join
// predicate pushdown.
package gsql

import (
	"fmt"
	"sort"
	"strings"

	"semjoin/internal/core"
	"semjoin/internal/rel"
)

// planEJoin plans an enrichment join, choosing the strategy per §IV.
func (e *Engine) planEJoin(f *FromItem) (rel.Iterator, provenance, error) {
	src, prov, err := e.planFrom(f.Source)
	if err != nil {
		return nil, provenance{}, err
	}
	g := e.graph(f.Graph)
	if g == nil {
		return nil, provenance{}, fmt.Errorf("gsql: unknown graph %q", f.Graph)
	}
	kind := f.Source.Kind
	joinName := "dynamic"
	if kind == FromTable {
		joinName = "static"
	}

	var out rel.Iterator
	switch {
	case e.Mode != ModeBaseline && e.Mode != ModeHeuristic &&
		prov.base != "" && prov.keyed &&
		e.view.WellBehavedKeywords(prov.base, f.Keywords):
		out, err = e.view.StaticEnrichIter(prov.base, src, f.Keywords)
		e.note("e-join(%s): well-behaved, %s over materialised h(D,G)", f.Graph, joinName)
	case e.Mode != ModeBaseline && prov.base != "" && !prov.keyed &&
		e.view.WellBehavedKeywords(prov.base, f.Keywords) && e.Mode != ModeHeuristic:
		// Condition (2)(b): recover tuple ids by joining back to the base
		// on the surviving attributes, then join statically.
		base := e.relation(prov.base)
		rejoined := rel.NewNaturalJoin(src, base)
		out, err = e.view.StaticEnrichIter(prov.base, rejoined, f.Keywords)
		e.note("e-join(%s): well-behaved via id recovery, %s", f.Graph, joinName)
	case e.Mode != ModeBaseline && e.Cat.Heur != nil:
		out = core.HeuristicEnrichIter(e.Cat.Heur, src, f.Keywords)
		e.note("e-join(%s): heuristic via gτ", f.Graph)
	default:
		cfg := e.Cat.RExt
		cfg.K = e.Cat.K
		if cfg.Obs == nil {
			cfg.Obs = e.reg()
		}
		out = core.BaselineEnrichIter(g, e.Cat.Models, e.Cat.Matcher, f.Keywords, cfg, src)
		e.note("e-join(%s): conceptual baseline (HER+RExt online)", f.Graph)
	}
	if err != nil {
		return nil, provenance{}, err
	}
	if f.Alias != "" {
		out = rel.NewRename(out, f.Alias)
	}
	return out, prov, nil
}

// linkFilters carries the WHERE conjuncts pushed into a link join's sides.
type linkFilters struct {
	left, right Expr
	leftSig     string
	rightSig    string
}

// splitLinkFilters partitions a WHERE conjunction into left-side,
// right-side and residual predicates for a single l-join FROM clause.
// A conjunct moves to a side iff every column it references resolves in
// that side's (aliased) schema and not ambiguously in both. The sides
// are planned (not executed) just for their schemas; when a side's
// schema is only known after Open, pushdown is skipped.
func (e *Engine) splitLinkFilters(f *FromItem, where Expr) (*linkFilters, Expr) {
	mark := len(e.Plan)
	left, _, errL := e.planFrom(f.Left)
	right, _, errR := e.planFrom(f.Right)
	e.Plan = e.Plan[:mark] // probing must not leave strategy notes
	if errL != nil || errR != nil {
		return nil, where // let normal planning surface the error
	}
	leftSchema, rightSchema := left.Schema(), right.Schema()
	if leftSchema == nil || rightSchema == nil {
		return nil, where
	}
	n1, n2 := linkSideNames(f)
	ls := leftSchema.Qualified(n1)
	rs := rightSchema.Qualified(n2)

	var lf, rf, rest Expr
	addTo := func(dst *Expr, c Expr) {
		if *dst == nil {
			*dst = c
		} else {
			*dst = And{L: *dst, R: c}
		}
	}
	for _, c := range splitConjuncts(where) {
		cols := Columns(c)
		inL, inR := true, true
		for _, col := range cols {
			if ls.Col(col) < 0 && leftSchema.Col(col) < 0 {
				inL = false
			}
			if rs.Col(col) < 0 && rightSchema.Col(col) < 0 {
				inR = false
			}
		}
		switch {
		case len(cols) == 0:
			addTo(&rest, c)
		case inL && !inR:
			addTo(&lf, c)
		case inR && !inL:
			addTo(&rf, c)
		default:
			addTo(&rest, c)
		}
	}
	if lf == nil && rf == nil {
		return nil, where
	}
	out := &linkFilters{left: lf, right: rf, leftSig: "true", rightSig: "true"}
	if lf != nil {
		out.leftSig = lf.String()
	}
	if rf != nil {
		out.rightSig = rf.String()
	}
	return out, rest
}

// splitConjuncts flattens a tree of ANDs into its conjuncts.
func splitConjuncts(e Expr) []Expr {
	if a, ok := e.(And); ok {
		return append(splitConjuncts(a.L), splitConjuncts(a.R)...)
	}
	return []Expr{e}
}

func linkSideNames(f *FromItem) (string, string) {
	n1, n2 := f.Left.Name(), f.Right.Name()
	if n1 == "" {
		n1 = "left"
	}
	if n2 == "" || n2 == n1 {
		n2 += "2"
		if n2 == "2" {
			n2 = "right"
		}
	}
	return n1, n2
}

// planLJoin plans a link join, with optional pushed-down side filters.
func (e *Engine) planLJoin(f *FromItem, filters *linkFilters) (rel.Iterator, provenance, error) {
	g := e.graph(f.Graph)
	if g == nil {
		return nil, provenance{}, fmt.Errorf("gsql: unknown graph %q", f.Graph)
	}
	s1, p1, err := e.planFrom(f.Left)
	if err != nil {
		return nil, provenance{}, err
	}
	s2, p2, err := e.planFrom(f.Right)
	if err != nil {
		return nil, provenance{}, err
	}
	// Give both sides distinct names for qualified output attributes.
	n1, n2 := linkSideNames(f)
	s1 = rel.NewRename(s1, n1)
	s2 = rel.NewRename(s2, n2)

	// Apply pushed-down side predicates (σ_P1 / σ_P2 of the paper's Q3
	// algebra) before computing connectivity.
	sig1, sig2 := predSignature(f.Left), predSignature(f.Right)
	if filters != nil {
		if filters.left != nil {
			s1 = rel.NewFilterWith("select σ_P1", s1, bindPredicate(filters.left))
		}
		if filters.right != nil {
			s2 = rel.NewFilterWith("select σ_P2", s2, bindPredicate(filters.right))
		}
		sig1 += "&" + filters.leftSig
		sig2 += "&" + filters.rightSig
	}

	var out rel.Iterator
	switch {
	case e.Mode == ModeHeuristic && e.Cat.Heur != nil:
		out = core.HeuristicLinkIter(e.Cat.Heur, g, e.Cat.K, s1, s2)
		e.note("l-join(%s): heuristic via gτ alignment", f.Graph)
	case e.Mode != ModeBaseline && p1.base != "" && p2.base != "" &&
		e.view.Base(p1.base) != nil && e.view.Base(p2.base) != nil:
		key := core.LinkCacheKey(p1.base, sig1, p2.base, sig2, e.Cat.K)
		out = e.view.StaticLinkIter(p1.base, s1, p2.base, s2, e.Cat.K, e.Par(), key)
		e.note("l-join(%s): well-behaved over pre-computed matches (gL key %s)", f.Graph, key)
	default:
		out = core.LinkJoinIter(g, e.Cat.Matcher, e.Cat.K, e.Par(), s1, s2)
		e.note("l-join(%s): online bidirectional search", f.Graph)
	}
	if f.Alias != "" {
		out = rel.NewRename(out, f.Alias)
	}
	return out, provenance{}, nil
}

// predSignature renders the selection predicates of a FROM side for the
// gL cache key (§IV-A: gL is keyed by the predicate sets of the two
// sub-queries).
func predSignature(f *FromItem) string {
	switch f.Kind {
	case FromTable:
		return "true"
	case FromSubquery:
		parts := []string{}
		if f.Sub.Where != nil {
			parts = append(parts, f.Sub.Where.String())
		}
		sort.Strings(parts)
		return strings.Join(parts, "&")
	case FromEJoin:
		return "e:" + predSignature(f.Source)
	}
	return "?"
}
