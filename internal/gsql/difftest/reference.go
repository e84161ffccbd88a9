package difftest

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"semjoin/internal/core"
	"semjoin/internal/graph"
	"semjoin/internal/gsql"
	"semjoin/internal/rel"
)

// Reference evaluates a gSQL query eagerly and naively, relation in,
// relation out: nested-loop products, map group-by, sort.SliceStable,
// Expr.Eval per tuple, semantic joins read straight off the
// materialised f(D,G) / h(D,G) and brute-force k-hop connectivity. It
// shares the parser, the Expr evaluator and the value type with the
// engine and nothing else — no operator, no planner rule, no batch —
// which is what makes it an oracle for them. It covers what the query
// generators emit (well-behaved semantic joins over base relations);
// anything else is an error, never a guess.
func Reference(cat *gsql.Catalog, input string) (*rel.Relation, error) {
	q, err := gsql.Parse(input)
	if err != nil {
		return nil, err
	}
	return refQuery(refEnv{cat, cat.Mat.View()}, q)
}

// refEnv is what the reference reads names from: the catalog, at one
// view of its materialisation for the whole query.
type refEnv struct {
	cat  *gsql.Catalog
	view *core.View
}

func refQuery(env refEnv, q *gsql.Query) (*rel.Relation, error) {
	var sides []*rel.Relation
	for i := range q.From {
		r, err := refFrom(env, &q.From[i])
		if err != nil {
			return nil, err
		}
		sides = append(sides, r)
	}
	cur := sides[0]
	if len(sides) > 1 {
		names := make([]string, len(sides))
		for i := range sides {
			if names[i] = q.From[i].Name(); names[i] == "" {
				names[i] = fmt.Sprintf("f%d", i)
			}
		}
		var err error
		if cur, err = refProduct("cross", sides, names); err != nil {
			return nil, err
		}
	}
	if q.Where != nil {
		cur = refFilter(cur, q.Where)
	}
	var err error
	if len(q.GroupBy) > 0 || hasAgg(q.Select) {
		if cur, err = refAggregate(cur, q); err != nil {
			return nil, err
		}
		if q.Having != nil {
			cur = refFilter(cur, q.Having)
		}
	} else if cur, err = refProject(cur, q.Select); err != nil {
		return nil, err
	}
	if q.Distinct {
		seen := map[string]bool{}
		kept := cur.Tuples[:0:0]
		for _, t := range cur.Tuples {
			if k := tupleKey(t); !seen[k] {
				seen[k] = true
				kept = append(kept, t)
			}
		}
		cur = &rel.Relation{Schema: cur.Schema, Tuples: kept}
	}
	if len(q.OrderBy) > 0 {
		cols := make([]int, len(q.OrderBy))
		for i, key := range q.OrderBy {
			if cols[i] = cur.Schema.Col(key.Col); cols[i] < 0 {
				return nil, fmt.Errorf("reference: no ORDER BY column %q in %s", key.Col, cur.Schema)
			}
		}
		ts := append([]rel.Tuple(nil), cur.Tuples...)
		sort.SliceStable(ts, func(i, j int) bool {
			for k, c := range cols {
				if cmp := ts[i][c].Compare(ts[j][c]); cmp != 0 {
					return (cmp < 0) != q.OrderBy[k].Desc
				}
			}
			return false
		})
		cur = &rel.Relation{Schema: cur.Schema, Tuples: ts}
	}
	if q.Limit >= 0 && q.Limit < len(cur.Tuples) {
		cur = &rel.Relation{Schema: cur.Schema, Tuples: cur.Tuples[:q.Limit]}
	}
	return cur, nil
}

func hasAgg(items []gsql.SelectItem) bool {
	for _, it := range items {
		if it.Agg != "" {
			return true
		}
	}
	return false
}

func refFilter(r *rel.Relation, e gsql.Expr) *rel.Relation {
	out := rel.NewRelation(r.Schema)
	for _, t := range r.Tuples {
		if e.Eval(r.Schema, t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// refProduct is the left-major Cartesian product under qualified names.
func refProduct(name string, sides []*rel.Relation, names []string) (*rel.Relation, error) {
	var attrs []rel.Attribute
	rows := []rel.Tuple{nil}
	for i, side := range sides {
		attrs = append(attrs, side.Schema.Qualified(names[i]).Attrs...)
		var next []rel.Tuple
		for _, prefix := range rows {
			for _, t := range side.Tuples {
				next = append(next, append(append(rel.Tuple(nil), prefix...), t...))
			}
		}
		rows = next
	}
	s, err := rel.TrySchema(name, "", attrs...)
	if err != nil {
		return nil, err
	}
	return &rel.Relation{Schema: s, Tuples: rows}, nil
}

// baseOf walks a FROM item down to the base relation whose tuples it
// selects from, or "" when there is none.
func baseOf(f *gsql.FromItem) string {
	switch f.Kind {
	case gsql.FromTable:
		return f.Table
	case gsql.FromEJoin:
		return baseOf(f.Source)
	case gsql.FromSubquery:
		if len(f.Sub.From) == 1 && len(f.Sub.GroupBy) == 0 && !hasAgg(f.Sub.Select) {
			return baseOf(&f.Sub.From[0])
		}
	}
	return ""
}

func refFrom(env refEnv, f *gsql.FromItem) (r *rel.Relation, err error) {
	switch f.Kind {
	case gsql.FromTable:
		if r = env.cat.RelationIn(env.view, f.Table); r == nil {
			err = fmt.Errorf("reference: unknown relation %q", f.Table)
		}
	case gsql.FromSubquery:
		r, err = refQuery(env, f.Sub)
	case gsql.FromEJoin:
		if r, err = refFrom(env, f.Source); err == nil {
			r, err = refEnrich(env, baseOf(f.Source), r, f.Keywords)
		}
	case gsql.FromLJoin:
		r, err = refLink(env, f)
	}
	if err != nil || f.Alias == "" {
		return r, err
	}
	return &rel.Relation{Schema: r.Schema.Rename(f.Alias), Tuples: r.Tuples}, nil
}

// refEnrich is S ⋈ f(D,G) ⋈ h(D,G) by nested loops: every source
// tuple, every match row with its tuple id, every extracted row with
// that vertex; the output is S's attributes, vid and the keywords not
// already present.
func refEnrich(env refEnv, base string, src *rel.Relation, keywords []string) (*rel.Relation, error) {
	if !env.view.WellBehavedKeywords(base, keywords) {
		return nil, fmt.Errorf("reference: e-join <%s> over %q is not well-behaved", strings.Join(keywords, ", "), base)
	}
	b := env.view.Base(base)
	f := b.MatchRelation()
	key := b.Spec.D.Schema.Key
	srcKey, matchKey := src.Schema.Col(key), f.Schema.Col(key)
	if key == "" || srcKey < 0 || matchKey < 0 {
		return nil, fmt.Errorf("reference: e-join source %s lost the key of %q", src.Schema, base)
	}
	attrs := append([]rel.Attribute(nil), src.Schema.Attrs...)
	var extCols []int // extracted columns appended after S's
	for _, name := range append([]string{"vid"}, keywords...) {
		if src.Schema.Has(name) {
			continue
		}
		c := b.Extracted.Schema.Col(name)
		if c < 0 {
			return nil, fmt.Errorf("reference: keyword %q was not extracted for %q", name, base)
		}
		attrs = append(attrs, b.Extracted.Schema.Attrs[c])
		extCols = append(extCols, c)
	}
	schema, err := rel.TrySchema(src.Schema.Name, src.Schema.Key, attrs...)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(schema)
	matchVid, extVid := f.Schema.Col("vid"), b.Extracted.Schema.Col("vid")
	for _, t := range src.Tuples {
		for _, m := range f.Tuples {
			if !t[srcKey].Equal(m[matchKey]) {
				continue
			}
			for _, x := range b.Extracted.Tuples {
				if !m[matchVid].Equal(x[extVid]) {
					continue
				}
				row := append(rel.Tuple(nil), t...)
				for _, c := range extCols {
					row = append(row, x[c])
				}
				out.Tuples = append(out.Tuples, row)
			}
		}
	}
	return out, nil
}

// refLink is the link join by brute force: two tuples join iff the
// vertices their bases matched them to are within K hops.
func refLink(env refEnv, f *gsql.FromItem) (*rel.Relation, error) {
	g := env.cat.GraphIn(env.view, f.Graph)
	if g == nil {
		return nil, fmt.Errorf("reference: unknown graph %q", f.Graph)
	}
	names := [2]string{f.Left.Name(), f.Right.Name()}
	if names[0] == "" {
		names[0] = "left"
	}
	if names[1] == "" {
		names[1] = "right"
	} else if names[1] == names[0] {
		names[1] += "2"
	}
	var sides [2]*rel.Relation
	var verts [2][]graph.VertexID // matched vertex per tuple, -1 when unmatched
	var attrs []rel.Attribute
	for i, side := range []*gsql.FromItem{f.Left, f.Right} {
		r, err := refFrom(env, side)
		if err != nil {
			return nil, err
		}
		key := r.Schema.KeyCol()
		b := env.view.Base(baseOf(side))
		if b == nil || key < 0 {
			return nil, fmt.Errorf("reference: l-join side %s is not a keyed selection of a materialised base", r.Schema)
		}
		byTID := map[string]graph.VertexID{}
		for _, m := range b.Matches() {
			byTID[m.TID.String()] = m.Vertex
		}
		for _, t := range r.Tuples {
			v, ok := byTID[t[key].String()]
			if !ok {
				v = -1
			}
			verts[i] = append(verts[i], v)
		}
		sides[i] = r
		attrs = append(attrs, r.Schema.Qualified(names[i]).Attrs...)
	}
	schema, err := rel.TrySchema(names[0]+"_l_"+names[1], "", attrs...)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(schema)
	for i, t1 := range sides[0].Tuples {
		for j, t2 := range sides[1].Tuples {
			if verts[0][i] >= 0 && verts[1][j] >= 0 && g.WithinKHops(verts[0][i], verts[1][j], env.cat.K) >= 0 {
				out.Tuples = append(out.Tuples, append(append(rel.Tuple(nil), t1...), t2...))
			}
		}
	}
	return out, nil
}

// refProject expands stars, resolves columns and names the outputs
// (a repeated output name gets an _N suffix; the key survives under
// its own name).
func refProject(r *rel.Relation, sel []gsql.SelectItem) (*rel.Relation, error) {
	var cols []int
	var attrs []rel.Attribute
	seen := map[string]int{}
	key := ""
	add := func(c int, name string) {
		if seen[name]++; seen[name] > 1 {
			name = fmt.Sprintf("%s_%d", name, seen[name])
		}
		if name == r.Schema.Key && r.Schema.Attrs[c].Name == name {
			key = name
		}
		cols = append(cols, c)
		attrs = append(attrs, rel.Attribute{Name: name, Type: r.Schema.Attrs[c].Type})
	}
	for _, it := range sel {
		if it.Star || strings.HasSuffix(it.Col, ".*") {
			for c, a := range r.Schema.Attrs {
				if it.Star || strings.HasPrefix(a.Name, strings.TrimSuffix(it.Col, "*")) {
					add(c, a.Name)
				}
			}
			continue
		}
		c := r.Schema.Col(it.Col)
		if c < 0 {
			return nil, fmt.Errorf("reference: unknown column %q in %s", it.Col, r.Schema)
		}
		add(c, it.OutName())
	}
	s, err := rel.TrySchema(r.Schema.Name, key, attrs...)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(s)
	for _, t := range r.Tuples {
		row := make(rel.Tuple, len(cols))
		for i, c := range cols {
			row[i] = t[c]
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// refAggregate groups by map in first-occurrence order and emits the
// SELECT list's columns; aggregates skip nulls, and an ungrouped
// aggregate over no rows still yields its one global group.
func refAggregate(r *rel.Relation, q *gsql.Query) (*rel.Relation, error) {
	gcols := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		if gcols[i] = r.Schema.Col(g); gcols[i] < 0 {
			return nil, fmt.Errorf("reference: unknown GROUP BY column %q in %s", g, r.Schema)
		}
	}
	groups := map[string][]rel.Tuple{}
	var order []string
	for _, t := range r.Tuples {
		k := ""
		for _, c := range gcols {
			k += t[c].Key() + "\x1f"
		}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], t)
	}
	if len(q.GroupBy) == 0 && len(order) == 0 {
		order, groups[""] = []string{""}, nil
	}
	attrs := make([]rel.Attribute, len(q.Select))
	for i, it := range q.Select {
		attrs[i] = rel.Attribute{Name: it.OutName()}
	}
	s, err := rel.TrySchema(r.Schema.Name+"_agg", "", attrs...)
	if err != nil {
		return nil, err
	}
	out := rel.NewRelation(s)
	for _, k := range order {
		members := groups[k]
		row := make(rel.Tuple, len(q.Select))
		for i, it := range q.Select {
			if it.Agg == "" {
				c := r.Schema.Col(it.Col)
				if c < 0 || it.Star || !slices.Contains(q.GroupBy, it.Col) {
					return nil, fmt.Errorf("reference: %q is neither grouped nor aggregated", it.Col)
				}
				row[i] = members[0][c]
				continue
			}
			var vals []rel.Value
			for _, t := range members {
				v := rel.I(1)
				if it.Arg != "*" {
					c := r.Schema.Col(it.Arg)
					if c < 0 {
						return nil, fmt.Errorf("reference: unknown aggregate argument %q", it.Arg)
					}
					v = t[c]
				}
				if !v.IsNull() {
					vals = append(vals, v)
				}
			}
			row[i] = fold(it.Agg, vals)
		}
		out.Tuples = append(out.Tuples, row)
	}
	return out, nil
}

// fold computes one aggregate over a group's non-null values.
func fold(agg string, vals []rel.Value) rel.Value {
	if agg == "count" {
		return rel.I(int64(len(vals)))
	}
	sum, best := 0.0, rel.Null
	for _, v := range vals {
		sum += v.Float()
		if best.IsNull() || (agg == "min" && v.Compare(best) < 0) || (agg == "max" && v.Compare(best) > 0) {
			best = v
		}
	}
	switch {
	case agg == "sum":
		return rel.F(sum)
	case agg == "avg" && len(vals) > 0:
		return rel.F(sum / float64(len(vals)))
	case agg == "min" || agg == "max":
		return best
	}
	return rel.Null
}
