package rel

import (
	"context"
	"fmt"
)

// Generated is what a Generator yields: the output schema, an optional
// note surfaced in EXPLAIN (e.g. "gL hit") and a pull function that
// returns non-empty batches until (nil, nil).
type Generated struct {
	Schema  *Schema
	Note    string
	Workers int // worker count used to generate, surfaced in EXPLAIN when > 0
	Pull    func() (*Batch, error)
}

// Generator consumes fully-gathered inputs (one batch per child, its
// selection vector possibly set) and produces a streamed output.
// Semantic joins (enrichment, link) are input-side pipeline breakers
// built on it: HER matching needs whole relations, but their results
// flow on batch-at-a-time.
type Generator func(ctx context.Context, inputs []*Batch) (Generated, error)

type generateKernel struct {
	baseKernel
	gen  Generator
	pull func() (*Batch, error)
}

func (k *generateKernel) open(o *op) error {
	inputs := make([]*Batch, len(o.children))
	for i, c := range o.children {
		if c.Schema() == nil {
			return fmt.Errorf("rel: %s: input %d has no schema", o.stats.Label, i)
		}
		b, err := gather(c)
		if err != nil {
			return err
		}
		inputs[i] = b
	}
	g, err := k.gen(o.ctx, inputs)
	if err != nil {
		return err
	}
	if g.Schema == nil {
		return fmt.Errorf("rel: %s: generator produced no schema", o.stats.Label)
	}
	o.schema = g.Schema
	if g.Note != "" {
		o.stats.Note = g.Note
	}
	if g.Workers > 0 {
		o.stats.Workers = g.Workers
	}
	k.pull = g.Pull
	return nil
}

func (k *generateKernel) next(o *op) (*Batch, error) { return k.pull() }

// NewGenerate gathers the children at Open, hands them to gen and
// streams the generated output. Its schema is nil until Open.
func NewGenerate(label string, children []Iterator, gen Generator) Iterator {
	return newOp(label, &generateKernel{gen: gen}, children...)
}

// NewApply is NewGenerate for producers that work relation-in,
// relation-out in one step: the inputs are handed over as relations,
// f's result streams out as slices of its columnar image, and its
// note annotates the plan.
func NewApply(label string, children []Iterator, f func(ctx context.Context, inputs []*Relation) (*Relation, string, error)) Iterator {
	return NewGenerate(label, children, func(ctx context.Context, inputs []*Batch) (Generated, error) {
		rels := make([]*Relation, len(inputs))
		for i, b := range inputs {
			rels[i] = b.Relation()
		}
		r, note, err := f(ctx, rels)
		if err != nil {
			return Generated{}, err
		}
		cols, i := r.columns(), 0
		return Generated{Schema: r.Schema, Note: note, Pull: func() (*Batch, error) {
			return nextSlice(r.Schema, cols.cols, cols.n, &i, DefaultBatchSize), nil
		}}, nil
	})
}
