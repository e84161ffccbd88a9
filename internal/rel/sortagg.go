// Pipeline breakers: sort and aggregation gather their whole input at
// Open and stream the result out in DefaultBatchSize batches.
package rel

import (
	"fmt"
	"sort"
)

// ---------------------------------------------------------------- sort

// SortKey is one ORDER BY key: an attribute and its direction.
type SortKey struct {
	Attr string
	Desc bool
}

// Asc returns ascending sort keys over the named attributes.
func Asc(names ...string) []SortKey {
	keys := make([]SortKey, len(names))
	for i, n := range names {
		keys[i] = SortKey{Attr: n}
	}
	return keys
}

type sortKernel struct {
	passKernel
	keys []SortKey
	cols []int
	in   *Batch  // gathered input
	perm []int32 // physical rows of in, sorted
	i    int
}

func (k *sortKernel) resolve(o *op) error {
	if err := k.passKernel.resolve(o); err != nil {
		return err
	}
	cols := make([]int, len(k.keys))
	for i, key := range k.keys {
		c := o.schema.Col(key.Attr)
		if c < 0 {
			return fmt.Errorf("rel: sort: no attribute %q in %s", key.Attr, o.schema)
		}
		cols[i] = c
	}
	k.cols = cols
	return nil
}

func (k *sortKernel) open(o *op) error {
	in, err := gather(o.children[0])
	if err != nil {
		return err
	}
	// Stable-sort a permutation of the live rows; comparison touches
	// only the sort columns, and the output batches reuse the gathered
	// columns with slices of the permutation as selection vectors.
	perm := make([]int32, in.Rows())
	for i := range perm {
		perm[i] = int32(in.RowIdx(i))
	}
	vecs := make([]*Vector, len(k.cols))
	for i, c := range k.cols {
		vecs[i] = in.Col(c)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		for ki, v := range vecs {
			cmp := v.ValueAt(int(perm[i])).Compare(v.ValueAt(int(perm[j])))
			if cmp == 0 {
				continue
			}
			return (cmp < 0) != k.keys[ki].Desc
		}
		return false
	})
	k.in, k.perm, k.i = in, perm, 0
	return nil
}

func (k *sortKernel) next(o *op) (*Batch, error) {
	if k.i >= len(k.perm) {
		return nil, nil
	}
	lo := k.i
	k.i = min(lo+DefaultBatchSize, len(k.perm))
	// The full slice expression keeps a downstream Refine, which
	// compacts sel in place, inside this batch's share of perm.
	return &Batch{schema: o.schema, cols: k.in.cols, sel: k.perm[lo:k.i:k.i]}, nil
}

// NewSort is a pipeline breaker stable-sorting by the given keys, major
// key first, each in its own direction.
func NewSort(child Iterator, keys ...SortKey) Iterator {
	names := make([]string, len(keys))
	for i, key := range keys {
		names[i] = key.Attr
		if key.Desc {
			names[i] += " desc"
		}
	}
	return newOp("sort "+fmt.Sprint(names), &sortKernel{keys: keys}, child)
}

// ----------------------------------------------------------- aggregate

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions supported by NewAggregate.
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

type aggKernel struct {
	baseKernel
	groupBy []string
	specs   []AggSpec
	gCols   []int
	sCols   []int // column per spec, -1 for count(*)
	out     *Batch
	i       int
}

func (k *aggKernel) resolve(o *op) error {
	in := o.children[0].Schema()
	if in == nil {
		return errSchemaPending
	}
	k.gCols = make([]int, len(k.groupBy))
	for i, n := range k.groupBy {
		c := in.Col(n)
		if c < 0 {
			return fmt.Errorf("rel: aggregate: no attribute %q in %s", n, in)
		}
		k.gCols[i] = c
	}
	k.sCols = make([]int, len(k.specs))
	for i, sp := range k.specs {
		if sp.Attr == "*" {
			k.sCols[i] = -1
			continue
		}
		c := in.Col(sp.Attr)
		if c < 0 {
			return fmt.Errorf("rel: aggregate: no attribute %q in %s", sp.Attr, in)
		}
		k.sCols[i] = c
	}
	attrs := make([]Attribute, 0, len(k.groupBy)+len(k.specs))
	for i, n := range k.groupBy {
		attrs = append(attrs, Attribute{Name: n, Type: in.Attrs[k.gCols[i]].Type})
	}
	for _, sp := range k.specs {
		kind := KindFloat
		if sp.Func == AggCount {
			kind = KindInt
		}
		attrs = append(attrs, Attribute{Name: sp.As, Type: kind})
	}
	s, err := TrySchema(in.Name+"_agg", "", attrs...)
	if err != nil {
		return err
	}
	o.schema = s
	return nil
}

// aggState accumulates one group across batches.
type aggState struct {
	key    Tuple
	counts []int64
	sums   []float64
	mins   []Value
	maxs   []Value
}

func (k *aggKernel) open(o *op) error {
	newGroup := func(key Tuple) *aggState {
		g := &aggState{
			key:    key,
			counts: make([]int64, len(k.specs)),
			sums:   make([]float64, len(k.specs)),
			mins:   make([]Value, len(k.specs)),
			maxs:   make([]Value, len(k.specs)),
		}
		for i := range k.specs {
			g.mins[i] = Null
			g.maxs[i] = Null
		}
		return g
	}
	groups := make(map[string]*aggState)
	var order []string
	for {
		b, err := o.children[0].NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := o.ctx.Err(); err != nil {
			return err
		}
		for i, n := 0, b.Rows(); i < n; i++ {
			r := b.RowIdx(i)
			key := ""
			for _, c := range k.gCols {
				key += b.Col(c).ValueAt(r).Key()
			}
			g, ok := groups[key]
			if !ok {
				gk := make(Tuple, len(k.gCols))
				for gi, c := range k.gCols {
					gk[gi] = b.Col(c).ValueAt(r)
				}
				g = newGroup(gk)
				groups[key] = g
				order = append(order, key)
			}
			for si, c := range k.sCols {
				v := I(1)
				if c >= 0 {
					v = b.Col(c).ValueAt(r)
				}
				if v.IsNull() {
					continue
				}
				g.counts[si]++
				g.sums[si] += v.Float()
				if g.mins[si].IsNull() || v.Compare(g.mins[si]) < 0 {
					g.mins[si] = v
				}
				if g.maxs[si].IsNull() || v.Compare(g.maxs[si]) > 0 {
					g.maxs[si] = v
				}
			}
		}
	}
	if len(k.groupBy) == 0 && len(groups) == 0 {
		// A single global group, even over an empty input (SQL COUNT).
		groups[""] = newGroup(nil)
		order = append(order, "")
	}
	out := NewBatch(o.schema)
	nt := make(Tuple, 0, len(o.schema.Attrs))
	for _, key := range order {
		g := groups[key]
		nt = append(nt[:0], g.key...)
		for i, sp := range k.specs {
			switch sp.Func {
			case AggCount:
				nt = append(nt, I(g.counts[i]))
			case AggSum:
				nt = append(nt, F(g.sums[i]))
			case AggAvg:
				if g.counts[i] == 0 {
					nt = append(nt, Null)
				} else {
					nt = append(nt, F(g.sums[i]/float64(g.counts[i])))
				}
			case AggMin:
				nt = append(nt, g.mins[i])
			case AggMax:
				nt = append(nt, g.maxs[i])
			}
		}
		out.AppendTuple(nt)
	}
	k.out = out
	k.i = 0
	return nil
}

func (k *aggKernel) next(o *op) (*Batch, error) {
	return nextSlice(o.schema, k.out.cols, k.out.Rows(), &k.i, DefaultBatchSize), nil
}

// NewAggregate is a pipeline breaker grouping by the groupBy attributes
// and computing the given aggregates per group (group order follows
// first occurrence in the input; a single global group over empty
// ungrouped input; aggregates skip nulls).
func NewAggregate(child Iterator, groupBy []string, specs []AggSpec) Iterator {
	return newOp("aggregate", &aggKernel{groupBy: groupBy, specs: specs}, child)
}
