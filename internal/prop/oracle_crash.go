package prop

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"semjoin/internal/core"
	"semjoin/internal/graph"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/her"
	"semjoin/internal/rel"
	"semjoin/internal/wal"
)

// crashTarget is the update-stream surface shared by the durable store
// under test and the in-memory control run.
type crashTarget interface {
	ApplyGraphUpdate(delta graph.Batch) (core.IncStats, error)
	ApplyRelationUpdate(d *rel.Relation) (core.IncStats, error)
	UpdateKeywords(keywords []string) (*rel.Relation, error)
}

// directBase drives a bare extractor through the same surface; its
// state is read back from the extractor.
type directBase struct {
	ex      *core.Extractor
	matcher her.Matcher
}

func (d *directBase) ApplyGraphUpdate(delta graph.Batch) (core.IncStats, error) {
	return d.ex.ApplyGraphUpdate(delta, d.matcher)
}

func (d *directBase) ApplyRelationUpdate(r *rel.Relation) (core.IncStats, error) {
	return d.ex.ApplyRelationUpdate(r, d.matcher)
}

func (d *directBase) UpdateKeywords(keywords []string) (*rel.Relation, error) {
	return d.ex.UpdateKeywords(keywords)
}

// streamDriver applies stream steps to a target, tracking ΔD row
// membership: the master row set with a present/absent flag per row,
// which relation steps toggle through their positional selectors. The membership flags are a pure function of the steps
// applied, so a driver survives a crash of its target: swap the target
// and keep going.
type streamDriver struct {
	target  crashTarget
	master  *rel.Relation
	present []bool
}

func newStreamDriver(t crashTarget, w *Workload) *streamDriver {
	present := make([]bool, w.Master.Len())
	for i := range w.Products.Tuples {
		present[i] = true // the reserve rows start absent
	}
	return &streamDriver{target: t, master: w.Master, present: present}
}

func (d *streamDriver) step(i int, st Step) error {
	switch st.Kind {
	case StepGraph:
		if _, err := d.target.ApplyGraphUpdate(st.Batch); err != nil {
			return fmt.Errorf("harness: step %d ApplyGraphUpdate: %w", i, err)
		}
	case StepRelation:
		applyRelStep(d.present, st)
		if _, err := d.target.ApplyRelationUpdate(subsetRelation(d.master, d.present)); err != nil {
			return fmt.Errorf("harness: step %d ApplyRelationUpdate: %w", i, err)
		}
	case StepKeywords:
		if _, err := d.target.UpdateKeywords(st.Keywords); err != nil {
			return fmt.Errorf("harness: step %d UpdateKeywords(%v): %w", i, st.Keywords, err)
		}
	}
	return nil
}

// productBase materialises just the product base for the workload —
// the durability domain the crash oracle runs against.
func productBase(w *Workload) (*core.BaseMaterialization, error) {
	m, err := core.BuildMaterialized(w.G, w.Models, map[string]core.BaseSpec{
		"product": {D: w.Products, AR: w.AR, Matcher: w.Matcher},
	}, w.Cfg)
	if err != nil {
		return nil, err
	}
	return m.Base("product"), nil
}

func graphImage(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	err := g.Save(&buf)
	return buf.Bytes(), err
}

// CheckCrashRecovery is oracle 8: durability must be invisible to
// semantics. A seeded update stream runs against a write-ahead-logged
// store that crashes — via the MemFS power-loss model, which discards
// everything not fsynced — at a seed-chosen record boundary, recovers
// by WAL replay onto pristine boot state, and then finishes the
// stream. The final graph, extracted relation and reference relation
// must equal an uninterrupted in-memory run of the identical stream.
func CheckCrashRecovery(seed int64, stream Stream) error {
	ctx := context.Background()
	m := 0
	if len(stream) > 0 {
		m = rand.New(rand.NewSource(seed ^ 0xc4a54)).Intn(len(stream) + 1)
	}

	// Durable run up to the crash point. SyncAlways means every
	// acknowledged step must survive the crash bit for bit.
	mem := wal.NewMemFS()
	w := NewWorkload(seed)
	base, err := productBase(w)
	if err != nil {
		return fmt.Errorf("harness: materialize: %w", err)
	}
	st, err := core.OpenDurable(ctx, "db",
		core.DurableBoot{Base: base, Graph: w.G, Models: w.Models, Cfg: w.Cfg},
		core.DurableOptions{Policy: wal.SyncAlways, FS: mem})
	if err != nil {
		return fmt.Errorf("harness: open durable: %w", err)
	}
	drv := newStreamDriver(st, w)
	for i := 0; i < m; i++ {
		if err := drv.step(i, stream[i]); err != nil {
			return err
		}
	}
	mem.Crash()

	// Recovery: pristine boot state (a workload rebuild is bit-identical)
	// plus WAL replay must reconstruct the pre-crash state, then carry
	// the rest of the stream.
	w2 := NewWorkload(seed)
	base2, err := productBase(w2)
	if err != nil {
		return fmt.Errorf("harness: rematerialize: %w", err)
	}
	st2, err := core.OpenDurable(ctx, "db",
		core.DurableBoot{Base: base2, Graph: w2.G, Models: w2.Models, Cfg: w2.Cfg},
		core.DurableOptions{FS: mem})
	if err != nil {
		return fmt.Errorf("recovery after crash at step %d failed: %w", m, err)
	}
	if skipped := st2.ReplaySkipped(); skipped != 0 {
		return fmt.Errorf("recovery skipped %d replay records", skipped)
	}
	drv.target = st2
	for i := m; i < len(stream); i++ {
		if err := drv.step(i, stream[i]); err != nil {
			return err
		}
	}

	// Uninterrupted control run of the identical stream.
	wc := NewWorkload(seed)
	basec, err := productBase(wc)
	if err != nil {
		return fmt.Errorf("harness: control materialize: %w", err)
	}
	ctl := newStreamDriver(&directBase{ex: basec.Extractor, matcher: wc.Matcher}, wc)
	for i, s := range stream {
		if err := ctl.step(i, s); err != nil {
			return err
		}
	}

	gGot, err := graphImage(st2.Graph())
	if err != nil {
		return fmt.Errorf("harness: save recovered graph: %w", err)
	}
	gWant, err := graphImage(wc.G)
	if err != nil {
		return fmt.Errorf("harness: save control graph: %w", err)
	}
	if !bytes.Equal(gGot, gWant) {
		return fmt.Errorf("crash at step %d/%d: recovered graph differs from uninterrupted run", m, len(stream))
	}
	if d := difftest.Diff(st2.Base().Extracted, basec.Extractor.Result()); d != "" {
		return fmt.Errorf("crash at step %d/%d: extracted relation diverged: %s", m, len(stream), d)
	}
	if d := difftest.Diff(st2.Base().Spec.D, subsetRelation(ctl.master, ctl.present)); d != "" {
		return fmt.Errorf("crash at step %d/%d: reference relation diverged: %s", m, len(stream), d)
	}
	if d := difftest.Diff(st2.Base().Extractor.MatchRelation(), basec.Extractor.MatchRelation()); d != "" {
		return fmt.Errorf("crash at step %d/%d: match relation diverged: %s", m, len(stream), d)
	}
	return nil
}
