// Predicate compilation: WHERE, HAVING and pushed-down link-join
// predicates run as batch filters. An expression compiles once per
// schema into a closure tree with pre-resolved column indexes and
// pre-dispatched comparison ops, so the per-row work inside a batch is
// a tight loop with no schema lookups, no Expr interface dispatch and
// no scratch tuples.
package gsql

import "semjoin/internal/rel"

// rowTest is a compiled predicate over one live row of a batch. The
// row index is physical (pre-selection), as handed out by Batch.Refine.
type rowTest func(b *rel.Batch, row int) bool

// valueAt is a compiled operand: a column access with the index
// resolved at bind time, or a captured literal.
type valueAt func(b *rel.Batch, row int) rel.Value

func compileOperand(s *rel.Schema, o Operand) valueAt {
	if !o.IsCol {
		v := o.Val
		return func(*rel.Batch, int) rel.Value { return v }
	}
	c := s.Col(o.Col)
	if c < 0 {
		return func(*rel.Batch, int) rel.Value { return rel.Null }
	}
	return func(b *rel.Batch, row int) rel.Value { return b.Col(c).ValueAt(row) }
}

// compileTest lowers an Expr into a rowTest against schema s. The
// second return is false when the expression has a shape this compiler
// does not cover; the caller then falls back to scratch-tuple
// evaluation, which is always semantically correct.
func compileTest(s *rel.Schema, e Expr) (rowTest, bool) {
	switch x := e.(type) {
	case Cmp:
		l, r := compileOperand(s, x.L), compileOperand(s, x.R)
		var cmp func(a, b rel.Value) bool
		switch x.Op {
		case "=":
			cmp = func(a, b rel.Value) bool { return a.Equal(b) }
		case "<>", "!=":
			cmp = func(a, b rel.Value) bool { return !a.Equal(b) }
		case "<":
			cmp = func(a, b rel.Value) bool { return a.Compare(b) < 0 }
		case "<=":
			cmp = func(a, b rel.Value) bool { return a.Compare(b) <= 0 }
		case ">":
			cmp = func(a, b rel.Value) bool { return a.Compare(b) > 0 }
		case ">=":
			cmp = func(a, b rel.Value) bool { return a.Compare(b) >= 0 }
		default:
			return nil, false
		}
		return func(b *rel.Batch, row int) bool {
			lv, rv := l(b, row), r(b, row)
			if lv.IsNull() || rv.IsNull() {
				return false
			}
			return cmp(lv, rv)
		}, true
	case IsNull:
		c := s.Col(x.Col)
		neg := x.Negate
		return func(b *rel.Batch, row int) bool {
			isNull := c < 0 || b.Col(c).IsNull(row)
			return isNull != neg
		}, true
	case In:
		l := compileOperand(s, x.L)
		vals, neg := x.Vals, x.Negate
		return func(b *rel.Batch, row int) bool {
			v := l(b, row)
			if v.IsNull() {
				return false
			}
			found := false
			for _, w := range vals {
				if v.Equal(w) {
					found = true
					break
				}
			}
			return found != neg
		}, true
	case Like:
		l := compileOperand(s, x.L)
		pat, neg := x.Pattern, x.Negate
		return func(b *rel.Batch, row int) bool {
			v := l(b, row)
			if v.IsNull() {
				return false
			}
			return likeMatch(v.String(), pat) != neg
		}, true
	case Between:
		l := compileOperand(s, x.L)
		lo, hi, neg := x.Lo, x.Hi, x.Negate
		return func(b *rel.Batch, row int) bool {
			v := l(b, row)
			if v.IsNull() {
				return false
			}
			in := v.Compare(lo) >= 0 && v.Compare(hi) <= 0
			return in != neg
		}, true
	case And:
		lt, ok := compileTest(s, x.L)
		if !ok {
			return nil, false
		}
		rt, ok := compileTest(s, x.R)
		if !ok {
			return nil, false
		}
		return func(b *rel.Batch, row int) bool { return lt(b, row) && rt(b, row) }, true
	case Or:
		lt, ok := compileTest(s, x.L)
		if !ok {
			return nil, false
		}
		rt, ok := compileTest(s, x.R)
		if !ok {
			return nil, false
		}
		return func(b *rel.Batch, row int) bool { return lt(b, row) || rt(b, row) }, true
	case Not:
		t, ok := compileTest(s, x.E)
		if !ok {
			return nil, false
		}
		return func(b *rel.Batch, row int) bool { return !t(b, row) }, true
	}
	return nil, false
}

// bindPredicate returns w as a late-bound batch predicate. The
// expression compiles per schema at bind time; shapes the compiler
// does not cover evaluate through a scratch tuple instead
// (rel.RowPred), which is always semantically correct.
func bindPredicate(w Expr) func(*rel.Schema) (rel.BatchPred, error) {
	return func(s *rel.Schema) (rel.BatchPred, error) {
		if test, ok := compileTest(s, w); ok {
			return func(b *rel.Batch) {
				b.Refine(func(row int) bool { return test(b, row) })
			}, nil
		}
		return rel.RowPred(s, func(t rel.Tuple) bool { return w.Eval(s, t) }), nil
	}
}
