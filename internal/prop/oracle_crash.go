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
	ApplyRelationUpdate(base string, d *rel.Relation) (core.IncStats, error)
	UpdateKeywords(base string, keywords []string) (core.IncStats, error)
}

// directBases drives bare extractors through the same surface, each
// over a graph of its own: a ΔG reaches every one through its own
// Extractor.ApplyGraphUpdate, and a step addressed to a base it does not
// hold changes nothing. Their state is read back from the extractors.
type directBases struct {
	exs     map[string]*core.Extractor
	matcher her.Matcher
}

func (d *directBases) ApplyGraphUpdate(delta graph.Batch) (core.IncStats, error) {
	for _, ex := range d.exs {
		if _, err := ex.ApplyGraphUpdate(delta, d.matcher); err != nil {
			return core.IncStats{}, err
		}
	}
	return core.IncStats{}, nil
}

func (d *directBases) ApplyRelationUpdate(base string, r *rel.Relation) (core.IncStats, error) {
	if ex := d.exs[base]; ex != nil {
		return ex.ApplyRelationUpdate(r, d.matcher)
	}
	return core.IncStats{}, nil
}

func (d *directBases) UpdateKeywords(base string, keywords []string) (core.IncStats, error) {
	if ex := d.exs[base]; ex != nil {
		_, err := ex.UpdateKeywords(keywords)
		return core.IncStats{}, err
	}
	return core.IncStats{}, nil
}

// directDomain is the uninterrupted control of a domain run: the
// workload's bases, each materialised over a graph of its own — product
// over w.G.
func directDomain(w *Workload) (*directBases, error) {
	d := &directBases{exs: map[string]*core.Extractor{}, matcher: w.Matcher}
	for name, spec := range w.specs() {
		g := w.G
		if name != "product" {
			g = w.G.Clone()
		}
		m, err := core.BuildMaterialized(g, w.Models, map[string]core.BaseSpec{name: spec}, w.Cfg)
		if err != nil {
			return nil, err
		}
		d.exs[name] = m.Base(name).Extractor
	}
	return d, nil
}

// membership is one base's ΔD state: the master row set with a
// present/absent flag per row, which relation steps toggle through their
// positional selectors.
type membership struct {
	master  *rel.Relation
	present []bool
}

func (m *membership) relation() *rel.Relation { return subsetRelation(m.master, m.present) }

// streamDriver applies stream steps to a target, tracking each base's
// membership. The membership flags are a pure function of the steps
// applied, so a driver survives a crash of its target: swap the target
// and keep going.
type streamDriver struct {
	target  crashTarget
	members map[string]*membership
}

func newStreamDriver(t crashTarget, w *Workload) *streamDriver {
	product := &membership{master: w.Master, present: make([]bool, w.Master.Len())}
	for i := range w.Products.Tuples {
		product.present[i] = true // the reserve rows start absent
	}
	customer := &membership{master: w.Customers, present: make([]bool, w.Customers.Len())}
	for i := range customer.present {
		customer.present[i] = true
	}
	return &streamDriver{target: t, members: map[string]*membership{"product": product, "customer": customer}}
}

func (d *streamDriver) step(i int, st Step) error {
	switch st.Kind {
	case StepGraph:
		if _, err := d.target.ApplyGraphUpdate(st.Batch); err != nil {
			return fmt.Errorf("harness: step %d ApplyGraphUpdate: %w", i, err)
		}
	case StepRelation:
		m := d.members[st.Base]
		applyRelStep(m.present, st)
		if _, err := d.target.ApplyRelationUpdate(st.Base, m.relation()); err != nil {
			return fmt.Errorf("harness: step %d ApplyRelationUpdate(%s): %w", i, st.Base, err)
		}
	case StepKeywords:
		if _, err := d.target.UpdateKeywords(st.Base, st.Keywords); err != nil {
			return fmt.Errorf("harness: step %d UpdateKeywords(%s, %v): %w", i, st.Base, st.Keywords, err)
		}
	}
	return nil
}

// openWorkloadStore materialises w's bases and opens their domain's
// store on fs: the store a crash interrupts, and the one that recovers
// it by replaying the log onto the pristine state.
func openWorkloadStore(ctx context.Context, w *Workload, opts core.DurableOptions) (*core.DurableStore, error) {
	m, err := w.Materialize()
	if err != nil {
		return nil, err
	}
	return m.OpenDurable(ctx, "db", core.DurableBoot{Models: w.Models, Cfg: w.Cfg}, opts)
}

func graphImage(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	err := g.Save(&buf)
	return buf.Bytes(), err
}

// CheckCrashRecovery is oracle 8: durability must be invisible to
// semantics. A seeded update stream runs against the write-ahead-logged
// store of the workload's domain — the graph and both bases — which
// crashes, via the MemFS power-loss model that discards everything not
// fsynced, at a seed-chosen record boundary, recovers by WAL replay onto
// pristine boot state, and then finishes the stream. The final graph and
// each base's extracted, reference and match relations must equal an
// uninterrupted in-memory run of the identical stream.
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
	st, err := openWorkloadStore(ctx, w, core.DurableOptions{Policy: wal.SyncAlways, FS: mem})
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
	st2, err := openWorkloadStore(ctx, NewWorkload(seed), core.DurableOptions{FS: mem})
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
	ctl, err := directDomain(wc)
	if err != nil {
		return fmt.Errorf("harness: control materialize: %w", err)
	}
	ctlDrv := newStreamDriver(ctl, wc)
	for i, s := range stream {
		if err := ctlDrv.step(i, s); err != nil {
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
	ver := st2.Version()
	for _, name := range []string{"customer", "product"} {
		got, want := ver.Base(name), ctl.exs[name]
		if d := difftest.Diff(got.Extracted, want.Result()); d != "" {
			return fmt.Errorf("crash at step %d/%d: %s's extracted relation diverged: %s", m, len(stream), name, d)
		}
		if d := difftest.Diff(got.Spec.D, ctlDrv.members[name].relation()); d != "" {
			return fmt.Errorf("crash at step %d/%d: %s's reference relation diverged: %s", m, len(stream), name, d)
		}
		if d := difftest.Diff(got.MatchRelation(), want.MatchRelation()); d != "" {
			return fmt.Errorf("crash at step %d/%d: %s's match relation diverged: %s", m, len(stream), name, d)
		}
	}
	return nil
}
