// Joins. Every join streams its first child and gathers the other
// side(s) into one batch at Open; matches are collected as
// (left row, right row) index vectors and the output is assembled
// column-at-a-time with Batch.Gather — no per-row Tuple allocation.
package rel

import (
	"errors"
	"fmt"
	"strings"

	"semjoin/internal/obs"
)

// concatSchema lays the qualified attributes of every input side by
// side under one schema name.
func concatSchema(name string, sides []*Schema, qualifiers []string) (*Schema, error) {
	var attrs []Attribute
	for i, s := range sides {
		attrs = append(attrs, s.Qualified(qualifiers[i]).Attrs...)
	}
	return TrySchema(name, "", attrs...)
}

// ------------------------------------------------------------- product

// productKernel is the Cartesian product of its children, optionally
// filtered by a predicate over the concatenated row: the cross join,
// the nested-loop join and the natural join's no-shared-attribute
// case. The first child streams; the rest are gathered at Open. Output
// rows come in probe order with the last child varying fastest, at
// most DefaultBatchSize per batch, so a large product never
// materialises.
type productKernel struct {
	baseKernel
	names   []string // qualifier per child; nil means the child schema names
	outName string   // output schema name; "" joins the qualifiers with sep
	sep     string
	pred    func(Tuple) bool

	mats   []*Batch  // children 1..n-1
	tuples [][]Tuple // their rows as tuples, only when pred != nil
	joined Tuple     // scratch row pred evaluates
	cur    *Batch    // current batch of child 0
	ci     int       // live row of cur being expanded
	leftAt int       // live row of cur that joined's left part holds
	idx    []int     // odometer over the live rows of mats, last fastest
	rows   [][]int32 // per-child row-index vectors of the batch being built
}

func (k *productKernel) resolve(o *op) error {
	sides := make([]*Schema, len(o.children))
	for i, c := range o.children {
		if sides[i] = c.Schema(); sides[i] == nil {
			return errSchemaPending
		}
	}
	names, outName := k.names, k.outName
	if names == nil {
		names = make([]string, len(sides))
		for i, s := range sides {
			names[i] = s.Name
		}
	}
	if outName == "" {
		outName = strings.Join(names, k.sep)
	}
	s, err := concatSchema(outName, sides, names)
	if err != nil {
		return err
	}
	o.schema = s
	return nil
}

func (k *productKernel) open(o *op) error {
	mats := make([]*Batch, len(o.children)-1)
	for i, c := range o.children[1:] {
		m, err := gather(c)
		if err != nil {
			return err
		}
		mats[i] = m
	}
	k.start(o, mats)
	return nil
}

// start resets the product over freshly gathered right-hand sides.
func (k *productKernel) start(o *op, mats []*Batch) {
	k.mats = mats
	k.idx = make([]int, len(mats))
	k.rows = make([][]int32, len(mats)+1)
	k.cur = nil
	k.tuples = nil
	if k.pred != nil {
		k.joined = make(Tuple, len(o.schema.Attrs))
		k.tuples = make([][]Tuple, len(mats))
		for i, m := range mats {
			k.tuples[i] = m.appendTuples(nil)
		}
	}
}

// matches evaluates pred on the current combination.
func (k *productKernel) matches() bool {
	if k.pred == nil {
		return true
	}
	at := k.cur.NumCols()
	if k.leftAt != k.ci {
		r := k.cur.RowIdx(k.ci)
		for c := 0; c < at; c++ {
			k.joined[c] = k.cur.Col(c).ValueAt(r)
		}
		k.leftAt = k.ci
	}
	for i, ts := range k.tuples {
		at += copy(k.joined[at:], ts[k.idx[i]])
	}
	return k.pred(k.joined)
}

func (k *productKernel) next(o *op) (*Batch, error) {
	for _, m := range k.mats {
		if m.Rows() == 0 {
			return nil, nil
		}
	}
	rows := k.rows
	for {
		// A selective predicate can reject whole probe batches, so the
		// retry loop observes cancellation itself.
		if err := o.ctx.Err(); err != nil {
			return nil, err
		}
		if k.cur == nil {
			b, err := o.children[0].NextBatch()
			if err != nil || b == nil {
				return nil, err
			}
			k.cur, k.ci, k.leftAt = b, 0, -1
			for i := range k.idx {
				k.idx[i] = 0
			}
		}
		for i := range rows {
			rows[i] = rows[i][:0]
		}
		for len(rows[0]) < DefaultBatchSize && k.ci < k.cur.Rows() {
			if k.matches() {
				rows[0] = append(rows[0], int32(k.cur.RowIdx(k.ci)))
				for i, m := range k.mats {
					rows[i+1] = append(rows[i+1], int32(m.RowIdx(k.idx[i])))
				}
			}
			for i := len(k.idx) - 1; ; i-- {
				if i < 0 {
					k.ci++
					break
				}
				k.idx[i]++
				if k.idx[i] < k.mats[i].Rows() {
					break
				}
				k.idx[i] = 0
			}
		}
		cur := k.cur
		if k.ci >= cur.Rows() {
			k.cur = nil
		}
		if len(rows[0]) == 0 {
			continue
		}
		out := NewBatch(o.schema)
		out.Gather(0, cur, rows[0])
		at := cur.NumCols()
		for i, m := range k.mats {
			out.Gather(at, m, rows[i+1])
			at += m.NumCols()
		}
		return out, nil
	}
}

// NewCrossJoin streams the Cartesian product of the children with
// attribute names qualified by the binding names. The first child
// streams; the rest are gathered at Open.
func NewCrossJoin(children []Iterator, names []string) Iterator {
	if len(children) != len(names) || len(children) == 0 {
		return errOp("cross", errors.New("rel: a cross join needs one name per child"))
	}
	return newOp("cross", &productKernel{outName: "cross", names: names}, children...)
}

// NewNestedLoopJoin joins left and right with an arbitrary predicate
// over the concatenated row (left's values first; the tuple is scratch
// and only valid during the call). The right side is gathered at Open.
func NewNestedLoopJoin(left, right Iterator, p func(joined Tuple) bool) Iterator {
	return newOp("nested-loop join", &productKernel{sep: "_", pred: p}, left, right)
}

// ----------------------------------------------------------- hash join

type hashJoinKernel struct {
	baseKernel
	leftAttr, rightAttr  string
	buildLeft            bool
	workers              int
	lc, rc               int
	build                *Batch              // gathered build side
	parts                []map[Value][]int32 // physical build rows by key, input order; one partition when built serially
	probeRows, buildRows []int32             // match pairs of the current probe batch
}

// parallelBuildMin is the build-side row count below which a parallel
// hash-join build is not worth the partitioning pass.
const parallelBuildMin = 512

func (k *hashJoinKernel) resolve(o *op) error {
	ls, rs := o.children[0].Schema(), o.children[1].Schema()
	if ls == nil || rs == nil {
		return errSchemaPending
	}
	k.lc, k.rc = ls.Col(k.leftAttr), rs.Col(k.rightAttr)
	if k.lc < 0 || k.rc < 0 {
		return fmt.Errorf("rel: hash join: missing attribute %q/%q", k.leftAttr, k.rightAttr)
	}
	s, err := concatSchema(ls.Name+"_"+rs.Name, []*Schema{ls, rs}, []string{ls.Name, rs.Name})
	if err != nil {
		return err
	}
	o.schema = s
	return nil
}

func (k *hashJoinKernel) open(o *op) error {
	buildChild, bc := o.children[1], k.rc
	if k.buildLeft {
		buildChild, bc = o.children[0], k.lc
	}
	build, err := gather(buildChild)
	if err != nil {
		return err
	}
	k.build = build
	reg := obs.FromContext(o.ctx)
	reg.Counter("rel_hashjoin_build_rows_total").Add(int64(build.Rows()))
	if k.workers > 1 && build.Rows() >= parallelBuildMin {
		reg.Counter("rel_hashjoin_parallel_builds_total").Inc()
		k.parts = buildPartitioned(build, bc, k.workers)
		o.stats.Workers = k.workers
		return nil
	}
	k.parts = []map[Value][]int32{hashRows(build, bc)}
	return nil
}

// hashRows indexes the live rows of b by the normalised value of
// column col (null keys never enter the table). Chains keep input
// order.
func hashRows(b *Batch, col int) map[Value][]int32 {
	kv := b.Col(col)
	ht := make(map[Value][]int32, b.Rows())
	for i, n := 0, b.Rows(); i < n; i++ {
		r := b.RowIdx(i)
		if key, ok := kv.ValueAt(r).HashKey(); ok {
			ht[key] = append(ht[key], int32(r))
		}
	}
	return ht
}

// lookup returns the build-side matches for a probe key. Every
// partition keeps rows in build-input order, so probe output is
// identical regardless of the build parallelism.
func (k *hashJoinKernel) lookup(key Value) []int32 {
	if len(k.parts) == 1 {
		return k.parts[0][key]
	}
	return k.parts[valuePartition(key, len(k.parts))][key]
}

func (k *hashJoinKernel) next(o *op) (*Batch, error) {
	probeChild, pc := o.children[0], k.lc
	if k.buildLeft {
		probeChild, pc = o.children[1], k.rc
	}
	for {
		b, err := probeChild.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		probeRows, buildRows := k.probeRows[:0], k.buildRows[:0]
		kv := b.Col(pc)
		for i, n := 0, b.Rows(); i < n; i++ {
			r := b.RowIdx(i)
			key, ok := kv.ValueAt(r).HashKey()
			if !ok {
				continue
			}
			for _, br := range k.lookup(key) {
				probeRows = append(probeRows, int32(r))
				buildRows = append(buildRows, br)
			}
		}
		k.probeRows, k.buildRows = probeRows, buildRows
		if len(probeRows) == 0 {
			continue
		}
		// Output layout is always left's values then right's.
		left, leftRows, right, rightRows := b, probeRows, k.build, buildRows
		if k.buildLeft {
			left, leftRows, right, rightRows = k.build, buildRows, b, probeRows
		}
		out := NewBatch(o.schema)
		out.Gather(0, left, leftRows)
		out.Gather(left.NumCols(), right, rightRows)
		return out, nil
	}
}

// NewHashJoinP equijoins left.leftAttr = right.rightAttr with qualified
// attribute names. buildLeft selects which side is gathered into the
// hash table at Open; the other side streams. Null join keys never
// match (SQL semantics); matches come in probe order with build-input
// order within a key, and the output layout is always left-then-right.
// When workers > 1 and the build side is large enough, the table is
// built as hash-partitioned sub-tables, one goroutine per partition;
// the probe stream and its output order are unchanged.
func NewHashJoinP(left, right Iterator, leftAttr, rightAttr string, buildLeft bool, workers int) Iterator {
	k := &hashJoinKernel{leftAttr: leftAttr, rightAttr: rightAttr, buildLeft: buildLeft, workers: workers}
	return newOp("hash join "+leftAttr+"="+rightAttr, k, left, right)
}

// -------------------------------------------------------- natural join

// naturalKernel joins its child with a relation on all shared attribute
// names; the relation's cached columnar image is the build side, hashed
// in place at Open. The single-shared-attribute
// case (the common one: the enrichment chain joins on tid then vid)
// probes on normalised Values; multi-attribute joins fall back to the
// concatenated Key string.
type naturalKernel struct {
	baseKernel
	right        *Relation
	aCols, bCols []int
	bExtra       []int
	build        *Batch
	extra        *Batch             // build's bExtra columns, gathered into the output
	htv          map[Value][]int32  // single shared attribute
	hts          map[string][]int32 // multiple shared attributes
	product      *productKernel     // no shared attributes
	aRows, bRows []int32            // match pairs of the current probe batch
}

func (k *naturalKernel) resolve(o *op) error {
	as, bs := o.children[0].Schema(), k.right.Schema
	if as == nil {
		return errSchemaPending
	}
	k.aCols, k.bCols, k.bExtra, k.product = nil, nil, nil, nil
	for i, attr := range as.Attrs {
		if c := bs.Col(attr.Name); c >= 0 {
			k.aCols = append(k.aCols, i)
			k.bCols = append(k.bCols, c)
		}
	}
	if len(k.aCols) == 0 {
		// Degenerates to a Cartesian product with qualified names.
		s, err := concatSchema(as.Name+"x"+bs.Name, []*Schema{as, bs}, []string{as.Name, bs.Name})
		if err != nil {
			return err
		}
		o.schema = s
		k.product = &productKernel{}
		return nil
	}
	// Output schema: all of a, then b's non-shared attributes.
	attrs := append([]Attribute(nil), as.Attrs...)
	for i, attr := range bs.Attrs {
		if !as.Has(attr.Name) {
			attrs = append(attrs, attr)
			k.bExtra = append(k.bExtra, i)
		}
	}
	key := as.Key
	if key == "" && bs.Key != "" {
		tmp, err := TrySchema("tmp", "", attrs...)
		if err != nil {
			return err
		}
		if tmp.Has(bs.Key) {
			key = bs.Key
		}
	}
	s, err := TrySchema(as.Name+"_"+bs.Name, key, attrs...)
	if err != nil {
		return err
	}
	o.schema = s
	return nil
}

func (k *naturalKernel) open(o *op) error {
	k.build = &Batch{schema: k.right.Schema, cols: k.right.columns().cols}
	k.extra = k.build.Project(nil, k.bExtra)
	k.htv, k.hts = nil, nil
	switch {
	case k.product != nil:
		k.product.start(o, []*Batch{k.build})
	case len(k.bCols) == 1:
		k.htv = hashRows(k.build, k.bCols[0])
	default:
		k.hts = make(map[string][]int32, k.build.Rows())
		for i, n := 0, k.build.Rows(); i < n; i++ {
			r := k.build.RowIdx(i)
			if key, ok := jointKey(k.build, r, k.bCols); ok {
				k.hts[key] = append(k.hts[key], int32(r))
			}
		}
	}
	return nil
}

func (k *naturalKernel) next(o *op) (*Batch, error) {
	if k.product != nil {
		return k.product.next(o)
	}
	for {
		b, err := o.children[0].NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		aRows, bRows := k.aRows[:0], k.bRows[:0]
		for i, n := 0, b.Rows(); i < n; i++ {
			r := b.RowIdx(i)
			var chain []int32
			if k.htv != nil {
				if key, ok := b.Col(k.aCols[0]).ValueAt(r).HashKey(); ok {
					chain = k.htv[key]
				}
			} else if key, ok := jointKey(b, r, k.aCols); ok {
				chain = k.hts[key]
			}
			for _, br := range chain {
				aRows = append(aRows, int32(r))
				bRows = append(bRows, br)
			}
		}
		k.aRows, k.bRows = aRows, bRows
		if len(aRows) == 0 {
			continue
		}
		out := NewBatch(o.schema)
		out.Gather(0, b, aRows)
		out.Gather(b.NumCols(), k.extra, bRows)
		return out, nil
	}
}

// jointKey concatenates the Key strings of row r's values in cols;
// false when any is null (null keys never join).
func jointKey(b *Batch, r int, cols []int) (string, bool) {
	key := ""
	for _, c := range cols {
		v := b.Col(c).ValueAt(r)
		if v.IsNull() {
			return "", false
		}
		key += v.Key()
	}
	return key, true
}

// NewNaturalJoin joins left with the relation right on all shared
// attribute names (the paper's S ⋈ f(S,G) ⋈ h(S,G) reduction joins on
// tid/vid: the static enrichment chain joins the pre-computed f(D,G)
// and h(D,G) through it). right's cached columnar image is hashed in
// place at Open, without a scan in between; left streams. Shared
// attributes appear once, and the key of left (else of right, when it
// survives) carries over. With no shared attributes it degenerates to
// a Cartesian product.
func NewNaturalJoin(left Iterator, right *Relation) Iterator {
	return newOp("natural join", &naturalKernel{right: right}, left)
}
