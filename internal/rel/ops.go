// Eager operator shims for callers outside this package. The fallible
// ones materialise the corresponding pipelined operator, so the eager
// API and query plans share one implementation and every failure (bad
// attribute name, schema collision) surfaces as an error — never a
// panic, matching the iterator engine's no-panic contract. Select and
// Rename have no failure modes at all and keep their single-return
// signatures with direct implementations.
package rel

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
