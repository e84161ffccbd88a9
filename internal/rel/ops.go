// Eager operator shims. The fallible ones materialise the
// corresponding pipelined operator, so the eager API and query plans
// share one implementation and every failure (bad attribute name,
// schema collision) surfaces as an error — never a panic, matching
// the iterator engine's no-panic contract. Select, Rename and
// Distinct have no failure modes at all and keep their single-return
// signatures with direct implementations.
package rel

import "errors"

// Pred is a tuple predicate used by Select and NestedLoopJoin.
type Pred func(Tuple) bool

// Select returns the tuples of r satisfying p (tuple rows shared, the
// Tuples slice freshly owned).
func Select(r *Relation, p Pred) *Relation {
	out := NewRelation(r.Schema)
	for _, t := range r.Tuples {
		if p(t) {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Project returns r restricted to the named attributes, in the given
// order. Unknown attribute names are reported as an error.
func Project(r *Relation, names ...string) (*Relation, error) {
	return Materialize(nil, NewProject(NewScan(r), names...))
}

// Rename returns r with a new relation name (schema copy, tuple rows
// shared, Tuples slice freshly owned — renaming no longer aliases the
// input's slice storage).
func Rename(r *Relation, name string) *Relation {
	out := NewRelation(r.Schema.Rename(name))
	out.Tuples = append(out.Tuples, r.Tuples...)
	return out
}

// CrossProduct returns the Cartesian product of a and b with qualified
// attribute names. Colliding qualified names (e.g. identical binding
// names) are reported as an error.
func CrossProduct(a, b *Relation, aName, bName string) (*Relation, error) {
	return Materialize(nil, newCrossJoin(aName+"x"+bName,
		[]Iterator{NewScan(a), NewScan(b)}, []string{aName, bName}))
}

// CrossJoinAll returns the Cartesian product of several relations with
// attribute names qualified by the given binding names (flat, one
// level).
func CrossJoinAll(rels []*Relation, names []string) (*Relation, error) {
	if len(rels) != len(names) || len(rels) == 0 {
		return nil, errors.New("rel: CrossJoinAll needs one name per relation")
	}
	its := make([]Iterator, len(rels))
	for i, r := range rels {
		its[i] = NewScan(r)
	}
	return Materialize(nil, NewCrossJoin(its, names))
}

// HashJoin equijoins a and b on a.leftAttr = b.rightAttr, producing the
// concatenation of both tuple layouts with attribute names qualified by
// the relation names. Null join keys never match (SQL semantics). The
// hash table is built on the smaller side.
func HashJoin(a, b *Relation, leftAttr, rightAttr string) (*Relation, error) {
	buildLeft := len(b.Tuples) >= len(a.Tuples)
	return Materialize(nil, NewHashJoinP(NewScan(a), NewScan(b), leftAttr, rightAttr, buildLeft, 1))
}

// NestedLoopJoin joins a and b with an arbitrary predicate over the
// concatenated tuple (a's values first). Attribute names are
// qualified; colliding qualified names are reported as an error.
func NestedLoopJoin(a, b *Relation, p func(joined Tuple) bool) (*Relation, error) {
	return Materialize(nil, NewNestedLoopJoin(NewScan(a), NewScan(b), p))
}

// NaturalJoin joins a and b on all shared attribute names (the paper's
// S ⋈ f(S,G) ⋈ h(S,G) reduction uses natural joins on tid/vid). Shared
// attributes appear once; remaining attributes keep their bare names.
// With no shared attributes the join degenerates to a Cartesian
// product whose qualified names may collide — that surfaces as an
// error instead of a panic.
func NaturalJoin(a, b *Relation) (*Relation, error) {
	return Materialize(nil, NewNaturalJoin(NewScan(a), b))
}

// Distinct returns r with duplicate tuples removed (first occurrence kept).
func Distinct(r *Relation) *Relation {
	out := NewRelation(r.Schema)
	seen := make(map[string]bool, len(r.Tuples))
	for _, t := range r.Tuples {
		key := ""
		for _, v := range t {
			key += v.Key()
		}
		if !seen[key] {
			seen[key] = true
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Union appends the tuples of b to a copy of a. Schemas must have equal
// arity; b's tuples are reinterpreted under a's schema.
func Union(a, b *Relation) (*Relation, error) {
	return Materialize(nil, NewUnion(NewScan(a), NewScan(b)))
}

// SortBy sorts r by the named attributes ascending (stable) and returns
// a new relation.
func SortBy(r *Relation, names ...string) (*Relation, error) {
	return Materialize(nil, NewSort(NewScan(r), Asc(names...)...))
}

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions supported by Aggregate.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggSpec is one aggregate output column.
type AggSpec struct {
	Func AggFunc
	Attr string // ignored for AggCount with Attr == "*"
	As   string
}

// Aggregate groups r by the groupBy attributes and computes the given
// aggregates per group. With no groupBy attributes a single global group
// is produced (even over an empty input, matching SQL COUNT semantics).
func Aggregate(r *Relation, groupBy []string, specs []AggSpec) (*Relation, error) {
	return Materialize(nil, NewAggregate(NewScan(r), groupBy, specs))
}
