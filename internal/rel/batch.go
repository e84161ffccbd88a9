// Batch-at-a-time execution: a Batch is a horizontal slice of a
// relation stored column-wise (one Vector per attribute) plus an
// optional selection vector. Filters refine the selection vector in
// place instead of copying rows, scans hand out zero-copy column
// slices of a relation's cached columnar image, and projections pick
// column headers without touching data — the DataFusion/DuckDB
// vectorized execution model scaled down to this engine.
package rel

import "sync"

// DefaultBatchSize is the row count per batch when an operator is
// built without an explicit size: large enough that per-batch overhead
// amortises away, small enough that a batch's columns stay cache
// resident.
const DefaultBatchSize = 1024

// Batch is a column-wise chunk of rows. cols[i] holds the values of
// schema attribute i for every physical row; sel, when non-nil, lists
// the physical indexes of the rows still alive, in output order (a
// sort emits slices of its permutation as selection vectors). Operators
// downstream of a filter must iterate via Rows/RowIdx, never assume
// sel is nil.
type Batch struct {
	schema *Schema
	cols   []Vector
	sel    []int32
}

// NewBatch returns an empty batch of schema s.
func NewBatch(s *Schema) *Batch {
	return &Batch{schema: s, cols: make([]Vector, len(s.Attrs))}
}

// Schema returns the batch's schema.
func (b *Batch) Schema() *Schema { return b.schema }

// Col returns column c. The vector is shared — treat it as read-only.
func (b *Batch) Col(c int) *Vector { return &b.cols[c] }

// NumCols returns the column count.
func (b *Batch) NumCols() int { return len(b.cols) }

// physLen returns the physical row count (before selection).
func (b *Batch) physLen() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].Len()
}

// Rows returns the live row count.
func (b *Batch) Rows() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.physLen()
}

// Sel returns the selection vector (nil when every physical row is
// live).
func (b *Batch) Sel() []int32 { return b.sel }

// RowIdx maps live row i to its physical index.
func (b *Batch) RowIdx(i int) int {
	if b.sel != nil {
		return int(b.sel[i])
	}
	return i
}

// AppendTuple appends t as a new physical row. Appending to a batch
// that carries a selection vector would desynchronise sel, so it is
// only legal on batches built row-by-row (sel == nil).
func (b *Batch) AppendTuple(t Tuple) {
	for c := range b.cols {
		b.cols[c].Append(t[c])
	}
}

// TupleAt materialises live row i as a freshly-allocated Tuple.
func (b *Batch) TupleAt(i int) Tuple {
	r := b.RowIdx(i)
	t := make(Tuple, len(b.cols))
	for c := range b.cols {
		t[c] = b.cols[c].ValueAt(r)
	}
	return t
}

// appendTuples appends every live row to ts as freshly-allocated
// tuples and returns the extended slice.
func (b *Batch) appendTuples(ts []Tuple) []Tuple {
	for i, n := 0, b.Rows(); i < n; i++ {
		ts = append(ts, b.TupleAt(i))
	}
	return ts
}

// Relation materialises the live rows as a relation of the batch's
// schema.
func (b *Batch) Relation() *Relation {
	r := NewRelation(b.schema)
	r.Tuples = b.appendTuples(nil)
	return r
}

// Refine keeps only the live rows whose physical index satisfies keep,
// refining the selection vector in place — no column data moves.
func (b *Batch) Refine(keep func(row int) bool) {
	if b.sel == nil {
		n := b.physLen()
		sel := make([]int32, 0, n)
		for i := 0; i < n; i++ {
			if keep(i) {
				sel = append(sel, int32(i))
			}
		}
		b.sel = sel
		return
	}
	out := b.sel[:0]
	for _, i := range b.sel {
		if keep(int(i)) {
			out = append(out, i)
		}
	}
	b.sel = out
}

// Project returns a batch holding only the columns cols (in that
// order) under schema s, sharing column data and the selection vector
// with b — projection is a header operation.
func (b *Batch) Project(s *Schema, cols []int) *Batch {
	out := &Batch{schema: s, cols: make([]Vector, len(cols)), sel: b.sel}
	for i, c := range cols {
		out.cols[i] = b.cols[c]
	}
	return out
}

// withSchema returns a batch sharing b's data under a renamed schema.
func (b *Batch) withSchema(s *Schema) *Batch {
	return &Batch{schema: s, cols: b.cols, sel: b.sel}
}

// Gather appends the physical rows of src listed in rows, column by
// column, onto b's columns starting at column offset at — how joins
// assemble their output from (left row, right row) index vectors. b
// must be selection-free (it is being built).
func (b *Batch) Gather(at int, src *Batch, rows []int32) {
	for c := range src.cols {
		b.cols[at+c].AppendRows(&src.cols[c], rows)
	}
}

// appendBatch appends src's live rows onto dst column-wise. dst must
// be selection-free.
func appendBatch(dst, src *Batch) {
	if src.sel != nil {
		dst.Gather(0, src, src.sel)
		return
	}
	for c := range src.cols {
		sv, dv := &src.cols[c], &dst.cols[c]
		for i, n := 0, sv.Len(); i < n; i++ {
			dv.Append(sv.ValueAt(i))
		}
	}
}

// ------------------------------------------------- columnar relations

// relColumns is a relation's cached columnar image: every attribute
// transposed into a Vector. It is a snapshot — valid only while the
// relation's Tuples slice is unchanged.
type relColumns struct {
	n    int
	base *Tuple // &Tuples[0] at build time (nil when empty)
	cols []Vector
}

func (c *relColumns) valid(r *Relation) bool {
	if c.n != len(r.Tuples) {
		return false
	}
	return c.n == 0 || &r.Tuples[0] == c.base
}

// colCacheMu guards every relation's colCache pointer. The critical
// sections are pointer reads/writes and a cheap validity check; the
// transposition itself runs outside the lock (a lost race rebuilds an
// identical image, which is harmless).
var colCacheMu sync.Mutex

func buildColumns(r *Relation) *relColumns {
	c := &relColumns{n: len(r.Tuples), cols: make([]Vector, len(r.Schema.Attrs))}
	if c.n > 0 {
		c.base = &r.Tuples[0]
	}
	for ci := range c.cols {
		v := &c.cols[ci]
		for _, t := range r.Tuples {
			v.Append(t[ci])
		}
	}
	return c
}

// columns returns the relation's columnar image, transposing and
// caching it on first use. The cache self-invalidates when Tuples
// changes (appends change the length; wholesale replacement changes
// the backing array), relying on the ownership rule that individual
// rows are immutable once inserted.
func (r *Relation) columns() *relColumns {
	colCacheMu.Lock()
	c := r.colCache
	if c != nil && c.valid(r) {
		colCacheMu.Unlock()
		return c
	}
	colCacheMu.Unlock()
	c = buildColumns(r)
	colCacheMu.Lock()
	r.colCache = c
	colCacheMu.Unlock()
	return c
}
