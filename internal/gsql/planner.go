package gsql

import (
	"fmt"
	"strings"

	"semjoin/internal/graph"
	"semjoin/internal/rel"
)

// provenance tracks, bottom-up, whether a (sub-)result still refers to the
// tuples of exactly one base relation — the well-behaved condition (2) of
// §IV-A. keyed reports that the base's tuple id survives in the schema.
type provenance struct {
	base  string
	keyed bool
}

// WellBehaved reports whether every semantic join in q is well-behaved
// w.r.t. the catalog's materialisation (A ⊆ AR and single-base
// provenance), via the linear-time bottom-up scan the paper describes.
func (e *Engine) WellBehaved(q *Query) bool {
	if e.view == nil { // not called from within a query: judge the current state
		e.pin()
		defer e.unpin()
	}
	ok := true
	var walkQuery func(*Query) provenance
	var walkFrom func(*FromItem) provenance
	walkFrom = func(f *FromItem) provenance {
		switch f.Kind {
		case FromTable:
			r := e.relation(f.Table)
			if r == nil {
				ok = false
				return provenance{}
			}
			return provenance{base: f.Table, keyed: r.Schema.Key != ""}
		case FromSubquery:
			return walkQuery(f.Sub)
		case FromEJoin:
			p := walkFrom(f.Source)
			if p.base == "" || !e.view.WellBehavedKeywords(p.base, f.Keywords) {
				ok = false
			}
			return p
		case FromLJoin:
			pl := walkFrom(f.Left)
			pr := walkFrom(f.Right)
			if pl.base == "" || pr.base == "" ||
				e.view.Base(pl.base) == nil || e.view.Base(pr.base) == nil {
				ok = false
			}
			return provenance{}
		}
		return provenance{}
	}
	walkQuery = func(q *Query) provenance {
		if len(q.From) == 1 && len(q.GroupBy) == 0 && !hasAgg(q.Select) {
			p := walkFrom(&q.From[0])
			// Projection may drop the key; condition (2)(b) still allows
			// single-base provenance.
			return p
		}
		for i := range q.From {
			walkFrom(&q.From[i])
		}
		return provenance{}
	}
	walkQuery(q)
	return ok
}

func hasAgg(items []SelectItem) bool {
	for _, it := range items {
		if it.Agg != "" {
			return true
		}
	}
	return false
}

// planQuery builds the operator tree for a query and returns its root
// plus provenance. Validation that needs only plan-time schemas
// happens here; the rest surfaces through the root's Open.
func (e *Engine) planQuery(q *Query) (rel.Iterator, provenance, error) {
	if len(q.From) == 0 {
		return nil, provenance{}, fmt.Errorf("gsql: empty FROM")
	}
	// Link-join predicate pushdown: the paper's Q3 algebra is
	// σ_P1(S1) ⋈_G σ_P2(S2) — single-side conjuncts of the WHERE clause
	// move into the join sides, shrinking the pairwise connectivity work
	// and making the gL cache keyed by the actual predicates.
	where := q.Where
	var push *linkFilters
	if len(q.From) == 1 && q.From[0].Kind == FromLJoin && where != nil {
		push, where = e.splitLinkFilters(&q.From[0], where)
	}

	// Plan FROM items.
	type bound struct {
		it   rel.Iterator
		prov provenance
	}
	var parts []bound
	for i := range q.From {
		var it rel.Iterator
		var p provenance
		var err error
		if i == 0 && push != nil {
			it, p, err = e.planLJoin(&q.From[0], push)
		} else {
			it, p, err = e.planFrom(&q.From[i])
		}
		if err != nil {
			return nil, provenance{}, err
		}
		parts = append(parts, bound{it, p})
	}
	// Combine with an n-ary cross join (flat qualified names). The first
	// binding streams; the rest are gathered at Open.
	cur := parts[0].it
	prov := parts[0].prov
	if len(parts) > 1 {
		its := make([]rel.Iterator, len(parts))
		names := make([]string, len(parts))
		for i := range parts {
			its[i] = parts[i].it
			names[i] = q.From[i].Name()
			if names[i] == "" {
				names[i] = fmt.Sprintf("f%d", i)
			}
		}
		cur = rel.NewCrossJoin(its, names)
		prov = provenance{}
	}
	// WHERE (minus any conjuncts pushed into a link join) and, when no
	// aggregation follows, the projection — collected as pipeline
	// stages over column batches (compiled predicates, zero-copy
	// projection). With parallelism the stage chain becomes one
	// exchange's sub-pipeline: each input batch is a morsel, filtered
	// and projected on its own worker, and the outputs merge back in
	// morsel order — the exact serial row sequence, just produced on
	// Par() workers.
	agg := hasAgg(q.Select) || len(q.GroupBy) > 0
	var stages []rel.PipelineBuilder
	if where != nil {
		stages = append(stages, func(in rel.Iterator) rel.Iterator {
			return rel.NewFilterWith("select", in, bindPredicate(where))
		})
	}
	if !agg && !(len(q.Select) == 1 && q.Select[0].Star) { // a bare SELECT * is the identity
		sel := q.Select
		stages = append(stages, func(in rel.Iterator) rel.Iterator {
			return rel.NewProjectWith("project", in, func(in *rel.Schema) (*rel.Schema, []int, error) {
				return resolveProjection(sel, in)
			})
		})
	}
	cur = e.applyStages(cur, stages)
	// Aggregation (the projection stage is already applied otherwise).
	out := cur
	if agg {
		var err error
		out, err = e.planAggregate(q, cur)
		if err != nil {
			return nil, provenance{}, err
		}
		if q.Having != nil {
			out = rel.NewFilterWith("having", out, bindPredicate(q.Having))
		}
		prov = provenance{}
	} else if prov.base != "" {
		// Projection keeps provenance; key survival decides keyed.
		if base := e.relation(prov.base); base != nil {
			if s := out.Schema(); s != nil {
				prov.keyed = s.Has(base.Schema.Key)
			} else {
				prov.keyed = selectKeepsKey(q.Select, base.Schema.Key, prov.keyed)
			}
		}
	}
	if q.Distinct {
		out = rel.NewDistinct(out)
	}
	if len(q.OrderBy) > 0 {
		keys := make([]rel.SortKey, len(q.OrderBy))
		for i, key := range q.OrderBy {
			keys[i] = rel.SortKey{Attr: key.Col, Desc: key.Desc}
		}
		out = rel.NewSort(out, keys...)
	}
	if q.Limit >= 0 {
		out = rel.NewLimit(out, q.Limit)
	}
	return out, prov, nil
}

// selectKeepsKey approximates key survival from the SELECT list when
// the output schema is only known after Open (opaque semantic-join
// sources): stars keep whatever the source had, explicit items keep
// the key if one of them names it.
func selectKeepsKey(items []SelectItem, key string, fromKeyed bool) bool {
	if key == "" {
		return false
	}
	for _, it := range items {
		if it.Star || strings.HasSuffix(it.Col, ".*") {
			if fromKeyed {
				return true
			}
			continue
		}
		if it.OutName() == key || it.Col == key || strings.HasSuffix(it.Col, "."+key) {
			return true
		}
	}
	return false
}

// applyStages chains pipeline stages onto cur: inline when serial, as
// one morsel-driven exchange when the engine is parallel.
func (e *Engine) applyStages(cur rel.Iterator, stages []rel.PipelineBuilder) rel.Iterator {
	if len(stages) == 0 {
		return cur
	}
	combined := func(in rel.Iterator) rel.Iterator {
		for _, s := range stages {
			in = s(in)
		}
		return in
	}
	if p := e.Par(); p > 1 {
		return rel.NewExchange(cur, p, combined)
	}
	return combined(cur)
}

// resolveProjection resolves a SELECT list against an input schema:
// star expansion, unknown-column validation, output renaming with _N
// collision dedup, and key survival.
func resolveProjection(sel []SelectItem, in *rel.Schema) (*rel.Schema, []int, error) {
	var names []string
	var outNames []string
	for _, it := range sel {
		switch {
		case it.Star:
			for _, a := range in.Attrs {
				names = append(names, a.Name)
				outNames = append(outNames, a.Name)
			}
		case strings.HasSuffix(it.Col, ".*"):
			prefix := strings.TrimSuffix(it.Col, "*")
			found := false
			for _, a := range in.Attrs {
				if strings.HasPrefix(a.Name, prefix) {
					names = append(names, a.Name)
					outNames = append(outNames, a.Name)
					found = true
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("gsql: no columns match %q", it.Col)
			}
		default:
			if in.Col(it.Col) < 0 {
				return nil, nil, fmt.Errorf("gsql: unknown column %q in %s", it.Col, in)
			}
			names = append(names, it.Col)
			outNames = append(outNames, it.OutName())
		}
	}
	cols := make([]int, len(names))
	attrs := make([]rel.Attribute, len(names))
	for i, n := range names {
		cols[i] = in.Col(n)
		attrs[i] = rel.Attribute{Name: n, Type: in.Attrs[cols[i]].Type}
	}
	key := ""
	for _, n := range names {
		if n == in.Key {
			key = n
		}
	}
	schema, err := renamedSchema(in.Name, key, attrs, outNames)
	if err != nil {
		return nil, nil, err
	}
	return schema, cols, nil
}

// renamedSchema renames projected attributes to their output names,
// deduplicating collisions with an _N suffix and keeping the key when
// an attribute still carries its name (the eager renameColumns rule).
func renamedSchema(name, key string, attrs []rel.Attribute, outNames []string) (*rel.Schema, error) {
	renamed := make([]rel.Attribute, len(outNames))
	seen := map[string]int{}
	for i, n := range outNames {
		seen[n]++
		if seen[n] > 1 {
			n = fmt.Sprintf("%s_%d", n, seen[n])
		}
		renamed[i] = rel.Attribute{Name: n, Type: attrs[i].Type}
	}
	outKey := ""
	for _, a := range renamed {
		if a.Name == key {
			outKey = a.Name
		}
	}
	return rel.TrySchema(name, outKey, renamed...)
}

// planAggregate applies GROUP BY + aggregates and projects in SELECT
// order (validation happens at plan time when the input schema is
// static, otherwise at Open).
func (e *Engine) planAggregate(q *Query, cur rel.Iterator) (rel.Iterator, error) {
	var specs []rel.AggSpec
	var order []string // output column order
	for _, it := range q.Select {
		switch {
		case it.Star:
			return nil, fmt.Errorf("gsql: SELECT * cannot be combined with aggregates")
		case it.Agg != "":
			var fn rel.AggFunc
			switch it.Agg {
			case "count":
				fn = rel.AggCount
			case "sum":
				fn = rel.AggSum
			case "avg":
				fn = rel.AggAvg
			case "min":
				fn = rel.AggMin
			case "max":
				fn = rel.AggMax
			}
			specs = append(specs, rel.AggSpec{Func: fn, Attr: it.Arg, As: it.OutName()})
			order = append(order, it.OutName())
		default:
			inGroup := false
			for _, g := range q.GroupBy {
				if g == it.Col {
					inGroup = true
				}
			}
			if !inGroup {
				return nil, fmt.Errorf("gsql: column %q must appear in GROUP BY", it.Col)
			}
			order = append(order, it.Col)
		}
	}
	agg := rel.NewAggregate(cur, q.GroupBy, specs)
	return rel.NewProject(agg, order...), nil
}

// planFrom plans one FROM item.
func (e *Engine) planFrom(f *FromItem) (rel.Iterator, provenance, error) {
	switch f.Kind {
	case FromTable:
		r := e.relation(f.Table)
		if r == nil {
			return nil, provenance{}, fmt.Errorf("gsql: unknown relation %q", f.Table)
		}
		var it rel.Iterator = rel.NewScan(r)
		if f.Alias != "" {
			it = rel.NewRename(it, f.Alias)
		}
		return it, provenance{base: f.Table, keyed: r.Schema.Key != ""}, nil
	case FromSubquery:
		it, p, err := e.planQuery(f.Sub)
		if err != nil {
			return nil, provenance{}, err
		}
		if f.Alias != "" {
			it = rel.NewRename(it, f.Alias)
		}
		return it, p, nil
	case FromEJoin:
		return e.planEJoin(f)
	case FromLJoin:
		return e.planLJoin(f, nil)
	}
	return nil, provenance{}, fmt.Errorf("gsql: bad FROM item")
}

// relation and graph resolve a name within the view of the query in
// flight, so that every name a query mentions is read from the same
// store versions.
func (e *Engine) relation(name string) *rel.Relation { return e.Cat.RelationIn(e.view, name) }

func (e *Engine) graph(name string) *graph.Graph { return e.Cat.GraphIn(e.view, name) }

func (e *Engine) note(format string, args ...any) {
	e.Plan = append(e.Plan, fmt.Sprintf(format, args...))
}
