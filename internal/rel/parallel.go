// Morsel-driven parallel execution. NewExchange drains its child at
// Open, runs an independent copy of a sub-pipeline over each input
// batch (one batch = one morsel) on a bounded worker pool, and merges
// the per-morsel outputs back into one stream *in morsel order* — so a
// parallel plan produces exactly the batch sequence of its serial
// counterpart, which keeps SORT/LIMIT plans deterministic, keeps the
// per-operator row and batch counters identical to serial execution
// (the metrics-parity invariant) and lets the differential harness
// compare serial and parallel executions row for row.
package rel

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"semjoin/internal/obs"
)

// PipelineBuilder constructs one worker's sub-pipeline over a morsel
// source. It is called once per morsel (pipeline construction is cheap)
// and must be reusable: any state it closes over has to be read-only.
type PipelineBuilder func(source Iterator) Iterator

type exchangeTask struct {
	done chan struct{}
	out  []*Batch
	err  error
}

type exchangeKernel struct {
	baseKernel
	p     int
	build PipelineBuilder

	tasks  []*exchangeTask
	cancel context.CancelFunc
	wg     sync.WaitGroup
	cur    int // task being drained
	i      int // next batch within the current task
}

func (k *exchangeKernel) resolve(o *op) error {
	in := o.children[0].Schema()
	if in == nil {
		return errSchemaPending
	}
	// Probe the sub-pipeline over an empty morsel source to learn the
	// output schema; builders whose schema needs data (generators)
	// force a short open/close round trip.
	probe := k.build(newMorselSource(in, nil))
	if probe.Schema() == nil {
		if err := probe.Open(context.Background()); err != nil {
			probe.Close()
			return err
		}
		defer probe.Close()
	}
	s := probe.Schema()
	if s == nil {
		return fmt.Errorf("rel: exchange: sub-pipeline produced no schema")
	}
	o.schema = s
	// The per-morsel operators never appear as children in the plan
	// tree, so record the sub-pipeline's spine as the exchange's note:
	// "exchange [project <- select]".
	if o.stats.Note == "" {
		var labels []string
		for it := probe; it != nil; {
			cs := it.Children()
			if len(cs) == 0 {
				break // the morsel source
			}
			labels = append(labels, it.Stats().Label)
			it = cs[0]
		}
		o.stats.Note = strings.Join(labels, " <- ")
	}
	return nil
}

func (k *exchangeKernel) open(o *op) error {
	morsels, err := drainBatches(o.children[0])
	if err != nil {
		return err
	}
	in := o.children[0].Schema()
	var rows int64
	for _, m := range morsels {
		rows += int64(m.Rows())
	}
	n := len(morsels)
	if n == 0 {
		n = 1 // one empty morsel keeps generators/edge cases uniform
		morsels = []*Batch{nil}
	}
	k.tasks = make([]*exchangeTask, n)
	for i := range k.tasks {
		k.tasks[i] = &exchangeTask{done: make(chan struct{})}
	}
	workers := max(1, min(k.p, n))
	o.stats.Workers = workers

	// Worker-occupancy metrics: morsel count, input rows and the
	// realised worker count per exchange. Recorded once per Open, so
	// the morsel hot loop stays clean.
	reg := obs.FromContext(o.ctx)
	reg.Counter("rel_exchange_morsels_total").Add(int64(n))
	reg.Counter("rel_exchange_input_rows_total").Add(rows)
	reg.Histogram("rel_exchange_workers", obs.SizeBuckets).Observe(float64(workers))

	ctx, cancel := context.WithCancel(o.ctx)
	k.cancel = cancel
	var next atomic.Int64
	k.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer k.wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= n || ctx.Err() != nil {
					return
				}
				var src []*Batch
				if morsels[idx] != nil {
					src = morsels[idx : idx+1]
				}
				t := k.tasks[idx]
				t.out, t.err = runMorsel(ctx, k.build, in, src)
				close(t.done)
			}
		}()
	}
	k.cur, k.i = 0, 0
	return nil
}

// runMorsel executes one sub-pipeline over a single-batch morsel. The
// morsel source is unmetered (its rows and batches were already
// counted entering the exchange); the sub-pipeline's own operators
// record normally and, because every morsel is exactly one input
// batch, their per-operator counts sum to the serial plan's.
func runMorsel(ctx context.Context, build PipelineBuilder, schema *Schema, src []*Batch) ([]*Batch, error) {
	sub := build(newMorselSource(schema, src))
	if err := sub.Open(ctx); err != nil {
		sub.Close()
		return nil, err
	}
	var out []*Batch
	for {
		b, err := sub.NextBatch()
		if err != nil {
			sub.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		out = append(out, b)
		if err := ctx.Err(); err != nil {
			sub.Close()
			return nil, err
		}
	}
	return out, sub.Close()
}

func (k *exchangeKernel) next(o *op) (*Batch, error) {
	for k.cur < len(k.tasks) {
		t := k.tasks[k.cur]
		select {
		case <-t.done:
		case <-o.ctx.Done():
			return nil, o.ctx.Err()
		}
		if t.err != nil {
			return nil, t.err
		}
		if k.i < len(t.out) {
			b := t.out[k.i]
			k.i++
			return b, nil
		}
		t.out = nil // release drained morsel memory early
		k.cur++
		k.i = 0
	}
	return nil, nil
}

func (k *exchangeKernel) close(o *op) error {
	if k.cancel != nil {
		k.cancel()
		k.wg.Wait() // no goroutine outlives Close
		k.cancel = nil
	}
	k.tasks = nil
	return nil
}

// NewExchange is the morsel-driven parallelism operator: it drains
// child at Open, runs build's sub-pipeline over the batches on p
// workers, one batch per morsel, and merges outputs in morsel order.
// With p <= 1 it degenerates to running the sub-pipeline inline over
// one morsel stream. Cancellation of the Open context stops the
// workers, and Close waits for them, so a cancelled plan leaks no
// goroutines.
func NewExchange(child Iterator, p int, build PipelineBuilder) Iterator {
	if build == nil {
		return errOp("exchange", errors.New("rel: exchange: nil pipeline builder"))
	}
	return newOp("exchange", &exchangeKernel{p: p, build: build}, child)
}

// ---------------------------------------------------- parallel build

var hashSeed = maphash.MakeSeed()

// valuePartition assigns a normalised join key (Value.HashKey) to one
// of n hash partitions. The hash covers the kind tag and the payload
// of the kind actually set, so two values that are == as map keys
// always land in the same partition.
func valuePartition(key Value, n int) int {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	// maphash writes never fail; errors are statically nil.
	h.WriteByte(byte(key.kind))
	switch key.kind {
	case KindString:
		h.WriteString(key.s)
	case KindFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(key.f))
		h.Write(b[:])
		if key.s != "" {
			// Canonical NaN / -0 sentinels carry their identity here.
			h.WriteString(key.s)
		}
	case KindBool:
		if key.b {
			h.WriteByte(1)
		}
	}
	return int(h.Sum64() % uint64(n))
}

// buildPartitioned builds per-partition hash tables over the live rows
// of b keyed on column col, in parallel: a sequential pass splits the
// rows by key hash (keeping input order within each partition, so
// probe results match the serial build exactly), then one goroutine
// per partition builds its table of physical row indexes.
func buildPartitioned(b *Batch, col, workers int) []map[Value][]int32 {
	rows := make([][]int32, workers)
	keys := make([][]Value, workers)
	kv := b.Col(col)
	for i, n := 0, b.Rows(); i < n; i++ {
		r := b.RowIdx(i)
		key, ok := kv.ValueAt(r).HashKey()
		if !ok {
			continue
		}
		p := valuePartition(key, workers)
		rows[p] = append(rows[p], int32(r))
		keys[p] = append(keys[p], key)
	}
	tables := make([]map[Value][]int32, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for p := 0; p < workers; p++ {
		go func(p int) {
			defer wg.Done()
			ht := make(map[Value][]int32, len(rows[p]))
			for i, r := range rows[p] {
				ht[keys[p][i]] = append(ht[keys[p][i]], r)
			}
			tables[p] = ht
		}(p)
	}
	wg.Wait()
	return tables
}
