// Package fixture exercises the batchsel analyzer: kernels must honor
// the selection vector and never mutate a handed-off batch.
package fixture

import "semjoin/internal/rel"

// Selection-vector blindness: the live-row counter indexes column
// data directly; one upstream filter and this reads dead rows.
func sumBlind(b *rel.Batch, col int) float64 {
	v := b.Col(col)
	var sum float64
	for i, n := 0, b.Rows(); i < n; i++ {
		if v.IsNull(i) { // want "vector indexed by the live-row counter"
			continue
		}
		sum += v.ValueAt(i).Float() // want "vector indexed by the live-row counter"
	}
	return sum
}

// Same bug with the bound spelled inline.
func firstBlind(b *rel.Batch, col int) rel.Value {
	for i := 0; i < b.Rows(); i++ {
		return b.Col(col).ValueAt(i) // want "vector indexed by the live-row counter"
	}
	return rel.Null
}

// Mutation after handoff: the consumer already owns the batch when
// Refine shrinks it under their feet.
func sendThenRefine(out chan<- *rel.Batch, b *rel.Batch, keep func(int) bool) {
	out <- b
	b.Refine(keep) // want "on a batch already sent downstream"
}

// -------- compliant shapes --------

// The canonical kernel loop: the counter goes through RowIdx before
// touching column data.
func sumSelAware(b *rel.Batch, col int) float64 {
	v := b.Col(col)
	var sum float64
	for i, n := 0, b.Rows(); i < n; i++ {
		r := b.RowIdx(i)
		if v.IsNull(r) {
			continue
		}
		sum += v.ValueAt(r).Float()
	}
	return sum
}

// The dense fast path is legal under the Sel() == nil guard.
func sumDenseFast(b *rel.Batch, col int) float64 {
	v := b.Col(col)
	var sum float64
	if b.Sel() == nil {
		for i, n := 0, b.Rows(); i < n; i++ {
			sum += v.ValueAt(i).Float()
		}
		return sum
	}
	for i, n := 0, b.Rows(); i < n; i++ {
		sum += v.ValueAt(b.RowIdx(i)).Float()
	}
	return sum
}

// TupleAt maps through the selection vector itself.
func collect(b *rel.Batch) []rel.Tuple {
	var out []rel.Tuple
	for i, n := 0, b.Rows(); i < n; i++ {
		out = append(out, b.TupleAt(i))
	}
	return out
}

// The producer loop: each send hands off the previous batch and the
// variable is reassigned to a fresh one before the next mutation.
func produce(out chan<- *rel.Batch, s *rel.Schema, rows []rel.Tuple) {
	b := rel.NewBatch(s)
	for _, t := range rows {
		b.AppendTuple(t)
		if b.Rows() >= 2 {
			out <- b
			b = rel.NewBatch(s)
		}
	}
	out <- b
}
