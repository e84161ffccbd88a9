// Names imported by cmd/semjoinbench, whose probes predate the single
// operator family and may not be edited outside a benchmark PR; delete
// with the next benchmark PR. Nothing else may use them.
package rel

// BatchIterator is Iterator.
type BatchIterator = Iterator

// NewBatchScan is NewScan.
func NewBatchScan(r *Relation) Iterator { return NewScan(r) }

// NewBatchFilter is NewFilter.
func NewBatchFilter(child Iterator, p BatchPred) Iterator { return NewFilter(child, p) }

// NewBatchSort is NewSort, ascending.
func NewBatchSort(child Iterator, names ...string) Iterator { return NewSort(child, Asc(names...)...) }

// NewBatchAggregate is NewAggregate.
func NewBatchAggregate(child Iterator, groupBy []string, specs []AggSpec) Iterator {
	return NewAggregate(child, groupBy, specs)
}
