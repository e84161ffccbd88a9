package rel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"semjoin/internal/obs"
)

// Iterator is a Volcano-style pull operator exchanging column batches.
// Plans are trees of iterators; the root is drained with Materialize
// (or manually via Open/NextBatch/Close), which is the one place rows
// turn back into tuples. All validation errors that the eager
// operators used to panic on are surfaced through Open instead, so a
// planner bug or a bad query degrades into an error, never a crash.
type Iterator interface {
	// Schema returns the output schema, or nil while it is unknown.
	// Most operators know their schema at construction time; sources
	// whose schema depends on data (e.g. semantic joins over opaque
	// inputs) only know it after Open.
	Schema() *Schema
	// Open prepares the operator, recursively opening children first,
	// and surfaces any validation error (unknown attribute, arity
	// mismatch, ...). ctx may be nil for context.Background().
	Open(ctx context.Context) error
	// NextBatch returns the next non-empty batch, or (nil, nil) at end
	// of stream. The batch belongs to the caller: it may refine the
	// selection vector in place, but column data is shared and
	// read-only. Cancellation of the Open context is checked per batch.
	NextBatch() (*Batch, error)
	// Close releases resources. It is safe to call after a failed
	// Open and at most once per Open.
	Close() error
	// Stats returns the operator's live counters (rows and batches
	// out, wall time inclusive of children).
	Stats() *OpStats
	// Children returns the child operators for plan traversal.
	Children() []Iterator
}

// errSchemaPending is an internal sentinel: a kernel cannot resolve
// yet because a child schema is only known after Open. newOp swallows
// it at construction time; Open retries once children are open.
var errSchemaPending = errors.New("rel: schema not yet resolved")

// kernel is the per-operator behaviour plugged into op. resolve must
// be idempotent: it runs best-effort at construction (to expose a
// plan-time schema) and again during Open when it failed earlier.
type kernel interface {
	resolve(o *op) error
	open(o *op) error
	next(o *op) (*Batch, error)
	close(o *op) error
}

// op wraps a kernel with the shared Iterator plumbing: child
// management, schema caching, stats accounting and cancellation.
type op struct {
	k         kernel
	children  []Iterator
	schema    *Schema
	stats     OpStats
	ctx       context.Context
	opened    bool
	done      bool
	resolved  bool
	metered   bool // rows-out not yet reported to the registry
	unmetered bool // never report (internal morsel sources)
}

func newOp(label string, k kernel, children ...Iterator) *op {
	o := &op{k: k, children: children}
	o.stats.Label = label
	o.resolved = k.resolve(o) == nil
	return o
}

// opKind reduces an operator label to its metric label: the leading
// word ("hash join tid=tid" -> "hash", "l-join static" -> "l-join").
func opKind(label string) string {
	if i := strings.IndexByte(label, ' '); i > 0 {
		return label[:i]
	}
	return label
}

func (o *op) Schema() *Schema      { return o.schema }
func (o *op) Children() []Iterator { return o.children }
func (o *op) Stats() *OpStats      { return &o.stats }

func (o *op) Open(ctx context.Context) error {
	start := time.Now()
	defer func() { o.stats.Elapsed += time.Since(start) }()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	o.ctx = ctx
	o.done = false
	for i, c := range o.children {
		if err := c.Open(ctx); err != nil {
			// Open is atomic: a child failing mid-fan must not strand
			// its already-opened siblings. Close the failed child and
			// everything opened before it so the tree is fully closed
			// even when the caller only propagates the error.
			c.Close()
			for _, prev := range o.children[:i] {
				prev.Close()
			}
			return err
		}
	}
	if !o.resolved {
		if err := o.k.resolve(o); err != nil {
			o.closeChildren()
			return err
		}
		o.resolved = true
	}
	if err := o.k.open(o); err != nil {
		o.closeChildren()
		return err
	}
	o.opened = true
	o.metered = !o.unmetered
	return nil
}

// closeChildren unwinds the children after a failed Open (the
// kernel's own state was never opened, so o.Close's kernel half is
// not involved). Closing an operator twice is safe, so callers that
// follow the close-on-failed-Open convention stay correct.
func (o *op) closeChildren() {
	for _, c := range o.children {
		c.Close()
	}
}

func (o *op) NextBatch() (*Batch, error) {
	if o.done || !o.opened {
		return nil, nil
	}
	start := time.Now()
	b, err := o.k.next(o)
	o.stats.Elapsed += time.Since(start)
	if err != nil || b == nil {
		o.done = true
		return nil, err
	}
	o.stats.RowsOut += int64(b.Rows())
	o.stats.Batches++
	if err := o.ctx.Err(); err != nil {
		o.done = true
		return nil, err
	}
	return b, nil
}

func (o *op) Close() error {
	var first error
	if o.opened {
		if err := o.k.close(o); err != nil {
			first = err
		}
		o.opened = false
	}
	if o.metered {
		// Aggregate accounting happens once per execution, at Close, so
		// the per-batch path stays untouched. The registry travels on the
		// Open context; without one this is a nil no-op.
		o.metered = false
		reg := obs.FromContext(o.ctx)
		kind := opKind(o.stats.Label)
		reg.Counter("rel_op_rows_total", "op", kind).Add(o.stats.RowsOut)
		reg.Counter("rel_op_batches_total", "op", kind).Add(o.stats.Batches)
	}
	for _, c := range o.children {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	o.done = true
	return first
}

// baseKernel provides no-op resolve/open/close for embedding.
type baseKernel struct{}

func (baseKernel) resolve(o *op) error { return nil }
func (baseKernel) open(o *op) error    { return nil }
func (baseKernel) close(o *op) error   { return nil }

// passKernel resolves to its first child's schema; kernels that only
// drop or reorder rows embed it.
type passKernel struct{ baseKernel }

func (passKernel) resolve(o *op) error {
	s := o.children[0].Schema()
	if s == nil {
		return errSchemaPending
	}
	o.schema = s
	return nil
}

// drainBatches pulls every remaining batch from an already-open
// iterator.
func drainBatches(c Iterator) ([]*Batch, error) {
	var out []*Batch
	for {
		b, err := c.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b)
	}
}

// gather drains an already-open iterator into a single batch — the
// build side of a join, the input of a sort. A child that produced
// exactly one batch hands it over as is (selection vector included);
// otherwise the live rows are copied into one selection-free batch.
func gather(c Iterator) (*Batch, error) {
	batches, err := drainBatches(c)
	if err != nil {
		return nil, err
	}
	if len(batches) == 1 {
		return batches[0], nil
	}
	s := c.Schema()
	if s == nil {
		return nil, errors.New("rel: input has no schema")
	}
	out := NewBatch(s)
	for _, b := range batches {
		appendBatch(out, b)
	}
	return out, nil
}

// nextSlice returns the next up-to-size of the n rows held in cols as
// a zero-copy batch under schema s, advancing *i; nil once *i reaches
// n. Scans and the pipeline breakers stream their columns out with it.
func nextSlice(s *Schema, cols []Vector, n int, i *int, size int) *Batch {
	if *i >= n {
		return nil
	}
	lo := *i
	*i = min(lo+size, n)
	b := &Batch{schema: s, cols: make([]Vector, len(cols))}
	for c := range cols {
		b.cols[c] = cols[c].Slice(lo, *i)
	}
	return b
}

// Materialize opens it, drains it into a relation and closes it — the
// single place batches become tuples. A nil ctx means
// context.Background(). The result's Tuples slice is always freshly
// owned (the ownership rule on Relation), so appending to it cannot
// corrupt any operator input.
func Materialize(ctx context.Context, it Iterator) (*Relation, error) {
	if err := it.Open(ctx); err != nil {
		it.Close()
		return nil, err
	}
	var ts []Tuple
	for {
		b, err := it.NextBatch()
		if err != nil {
			it.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		ts = b.appendTuples(ts)
	}
	if err := it.Close(); err != nil {
		return nil, err
	}
	s := it.Schema()
	if s == nil {
		return nil, fmt.Errorf("rel: materialize: iterator produced no schema")
	}
	out := NewRelation(s)
	out.Tuples = ts
	return out, nil
}

// errKernel always fails with a fixed error; construction-time
// invariant violations (e.g. mismatched argument lengths) become
// operators whose Open reports the problem.
type errKernel struct {
	baseKernel
	err error
}

func (k *errKernel) resolve(o *op) error        { return k.err }
func (k *errKernel) next(o *op) (*Batch, error) { return nil, k.err }

func errOp(label string, err error) Iterator { return newOp(label, &errKernel{err: err}) }

// ---------------------------------------------------------------- scan

type scanKernel struct {
	baseKernel
	r    *Relation
	size int
	cols *relColumns
	i    int
}

func (k *scanKernel) resolve(o *op) error { o.schema = k.r.Schema; return nil }

func (k *scanKernel) open(o *op) error {
	k.cols = k.r.columns()
	k.i = 0
	return nil
}

func (k *scanKernel) next(o *op) (*Batch, error) {
	return nextSlice(o.schema, k.cols.cols, k.cols.n, &k.i, k.size), nil
}

// NewScan streams the rows of r as zero-copy column slices of its
// columnar image, DefaultBatchSize rows per batch.
func NewScan(r *Relation) Iterator { return NewScanSize(r, 0) }

// NewScanSize is NewScan with an explicit batch size (size <= 0 means
// DefaultBatchSize). Tests use tiny batches to force multi-batch
// schedules — and multi-morsel exchanges — on small relations.
func NewScanSize(r *Relation, size int) Iterator {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return newOp("scan "+r.Schema.Name, &scanKernel{r: r, size: size})
}

// morselKernel replays pre-split batches; the exchange's per-morsel
// pipelines read from it.
type morselKernel struct {
	baseKernel
	batches []*Batch
	i       int
}

func (k *morselKernel) next(o *op) (*Batch, error) {
	if k.i >= len(k.batches) {
		return nil, nil
	}
	b := k.batches[k.i]
	k.i++
	return b, nil
}

// newMorselSource is the exchange's internal source. Its rows and
// batches were already counted once flowing into the exchange, so it
// stays unmetered — serial and parallel plans then report identical
// per-operator counters.
func newMorselSource(s *Schema, batches []*Batch) Iterator {
	o := newOp("scan "+s.Name, &morselKernel{batches: batches})
	o.schema = s
	o.unmetered = true
	return o
}

// -------------------------------------------------------------- filter

// BatchPred refines a batch's selection vector in place, keeping only
// the rows that satisfy the predicate. Implementations loop over the
// batch's columns directly (see Batch.Refine for the generic form).
type BatchPred func(b *Batch)

type filterKernel struct {
	baseKernel
	bind func(*Schema) (BatchPred, error)
	p    BatchPred
}

func (k *filterKernel) resolve(o *op) error {
	s := o.children[0].Schema()
	if s == nil {
		return errSchemaPending
	}
	p, err := k.bind(s)
	if err != nil {
		return err
	}
	o.schema = s
	k.p = p
	return nil
}

func (k *filterKernel) next(o *op) (*Batch, error) {
	for {
		b, err := o.children[0].NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		k.p(b)
		if b.Rows() > 0 {
			return b, nil
		}
	}
}

// NewFilter keeps the rows of child satisfying p, refining each
// batch's selection vector in place (no data copied). Fully-filtered
// batches are swallowed, never emitted empty.
func NewFilter(child Iterator, p BatchPred) Iterator {
	return NewFilterWith("select", child, func(*Schema) (BatchPred, error) { return p, nil })
}

// NewFilterWith is NewFilter with a late-bound predicate: bind runs
// once the input schema is known, so predicates can resolve column
// positions against schemas that only exist after Open.
func NewFilterWith(label string, child Iterator, bind func(*Schema) (BatchPred, error)) Iterator {
	return newOp(label, &filterKernel{bind: bind}, child)
}

// RowPred lifts a tuple predicate into a BatchPred through a reused
// scratch tuple — the form every predicate that is not compiled into
// per-column loops takes.
func RowPred(s *Schema, p Pred) BatchPred {
	scratch := make(Tuple, len(s.Attrs))
	return func(b *Batch) {
		b.Refine(func(row int) bool {
			for c := range scratch {
				scratch[c] = b.Col(c).ValueAt(row)
			}
			return p(scratch)
		})
	}
}

// NewSelect is NewFilter for a tuple predicate.
func NewSelect(child Iterator, p Pred) Iterator {
	return NewSelectWith("select", child, func(*Schema) (Pred, error) { return p, nil })
}

// NewSelectWith is NewFilterWith for a late-bound tuple predicate.
func NewSelectWith(label string, child Iterator, bind func(*Schema) (Pred, error)) Iterator {
	return NewFilterWith(label, child, func(s *Schema) (BatchPred, error) {
		p, err := bind(s)
		if err != nil {
			return nil, err
		}
		return RowPred(s, p), nil
	})
}

// ------------------------------------------------------------- project

type projectKernel struct {
	baseKernel
	bind func(in *Schema) (*Schema, []int, error)
	cols []int
}

func (k *projectKernel) resolve(o *op) error {
	in := o.children[0].Schema()
	if in == nil {
		return errSchemaPending
	}
	s, cols, err := k.bind(in)
	if err != nil {
		return err
	}
	for _, c := range cols {
		if c < 0 || c >= len(in.Attrs) {
			return fmt.Errorf("rel: project: column %d out of range for %s", c, in)
		}
	}
	o.schema = s
	k.cols = cols
	return nil
}

func (k *projectKernel) next(o *op) (*Batch, error) {
	b, err := o.children[0].NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	return b.Project(o.schema, k.cols), nil
}

// NewProject restricts child to the named attributes, in order: a
// zero-copy column pick.
func NewProject(child Iterator, names ...string) Iterator {
	return NewProjectWith("project", child, func(in *Schema) (*Schema, []int, error) {
		cols := make([]int, len(names))
		attrs := make([]Attribute, len(names))
		key := ""
		for i, n := range names {
			c := in.Col(n)
			if c < 0 {
				return nil, nil, fmt.Errorf("rel: project: no attribute %q in %s", n, in)
			}
			cols[i] = c
			attrs[i] = Attribute{Name: n, Type: in.Attrs[c].Type}
			if n == in.Key {
				key = n
			}
		}
		s, err := TrySchema(in.Name, key, attrs...)
		if err != nil {
			return nil, nil, err
		}
		return s, cols, nil
	})
}

// NewProjectWith is the late-bound projection: bind maps the input
// schema to the output schema plus the input column index per output
// column. gsql's projection (star expansion, renaming) binds through
// it. bind must be side-effect free (it may run at plan time when the
// input schema is already known).
func NewProjectWith(label string, child Iterator, bind func(in *Schema) (*Schema, []int, error)) Iterator {
	return newOp(label, &projectKernel{bind: bind}, child)
}

// -------------------------------------------------------------- rename

type renameKernel struct {
	baseKernel
	name string
}

func (k *renameKernel) resolve(o *op) error {
	in := o.children[0].Schema()
	if in == nil {
		return errSchemaPending
	}
	o.schema = in.Rename(k.name)
	return nil
}

func (k *renameKernel) next(o *op) (*Batch, error) {
	b, err := o.children[0].NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	return b.withSchema(o.schema), nil
}

// NewRename passes child through under a new relation name.
func NewRename(child Iterator, name string) Iterator {
	return newOp("rename "+name, &renameKernel{name: name}, child)
}

// ------------------------------------------------------------ distinct

type distinctKernel struct {
	passKernel
	seen map[string]bool
}

func (k *distinctKernel) open(o *op) error { k.seen = make(map[string]bool); return nil }

func (k *distinctKernel) next(o *op) (*Batch, error) {
	for {
		b, err := o.children[0].NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		b.Refine(func(row int) bool {
			key := ""
			for c := 0; c < b.NumCols(); c++ {
				key += b.Col(c).ValueAt(row).Key()
			}
			if k.seen[key] {
				return false
			}
			k.seen[key] = true
			return true
		})
		if b.Rows() > 0 {
			return b, nil
		}
	}
}

// NewDistinct removes duplicate rows, keeping first occurrences, by
// refining each batch's selection vector.
func NewDistinct(child Iterator) Iterator {
	return newOp("distinct", &distinctKernel{}, child)
}

// --------------------------------------------------------------- limit

type limitKernel struct {
	passKernel
	n       int
	emitted int
}

func (k *limitKernel) open(o *op) error { k.emitted = 0; return nil }

func (k *limitKernel) next(o *op) (*Batch, error) {
	if k.n >= 0 && k.emitted >= k.n {
		return nil, nil
	}
	b, err := o.children[0].NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if k.n >= 0 && k.emitted+b.Rows() > k.n {
		// Trim the batch to the remaining budget via its selection
		// vector — no data moves.
		want := k.n - k.emitted
		if b.sel == nil {
			sel := make([]int32, want)
			for i := range sel {
				sel[i] = int32(i)
			}
			b.sel = sel
		} else {
			b.sel = b.sel[:want]
		}
	}
	k.emitted += b.Rows()
	return b, nil
}

// NewLimit caps the stream at n live rows (a negative n means
// unlimited), trimming the final batch through its selection vector.
func NewLimit(child Iterator, n int) Iterator {
	return newOp(fmt.Sprintf("limit %d", n), &limitKernel{n: n}, child)
}

// --------------------------------------------------------------- union

type unionKernel struct {
	baseKernel
	cur int
}

func (k *unionKernel) resolve(o *op) error {
	first := o.children[0].Schema()
	if first == nil {
		return errSchemaPending
	}
	for _, c := range o.children[1:] {
		s := c.Schema()
		if s == nil {
			return errSchemaPending
		}
		if len(s.Attrs) != len(first.Attrs) {
			return errors.New("rel: union: arity mismatch")
		}
	}
	o.schema = first
	return nil
}

func (k *unionKernel) open(o *op) error { k.cur = 0; return nil }

func (k *unionKernel) next(o *op) (*Batch, error) {
	for k.cur < len(o.children) {
		b, err := o.children[k.cur].NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b.withSchema(o.schema), nil
		}
		k.cur++
	}
	return nil, nil
}

// NewUnion concatenates its children's streams; every child must have
// the first child's arity, and rows are reinterpreted under the first
// child's schema.
func NewUnion(children ...Iterator) Iterator {
	if len(children) == 0 {
		return errOp("union", errors.New("rel: union: no inputs"))
	}
	return newOp("union", &unionKernel{}, children...)
}
