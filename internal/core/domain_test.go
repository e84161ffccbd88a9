package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/mat"
	"semjoin/internal/rel"
	"semjoin/internal/wal"
)

var domainCfg = Config{K: 3, H: 12, Seed: 3}

// durableDomain is durableMaterialized with a second base over the same
// graph — company(cid, name), one row per company vertex — so the
// materialisation is a two-base graph domain. One oracle matcher knows
// both bases' keys.
func durableDomain(t testing.TB) (*world, *Materialized, *rel.Relation, her.Matcher) {
	t.Helper()
	w := buildWorld()
	companies := rel.NewRelation(rel.NewSchema("company", "cid",
		rel.Attribute{Name: "cid", Type: rel.KindString},
		rel.Attribute{Name: "name", Type: rel.KindString},
	))
	truth := map[string]graph.VertexID{}
	for k, v := range w.truth {
		truth[k] = v
	}
	for i, v := range w.g.VerticesOfType("company") {
		cid := fmt.Sprintf("co%d", i)
		companies.InsertVals(rel.S(cid), rel.S(w.g.Label(v)))
		truth[cid] = v
	}
	matcher := her.NewOracleMatcher(truth)
	m, err := BuildMaterialized(w.g, w.models, map[string]BaseSpec{
		"product": {D: w.products, AR: []string{"company", "country"}, Matcher: matcher},
		"company": {D: companies, AR: []string{"country"}, Matcher: matcher},
	}, domainCfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, m, companies, matcher
}

// domainStep applies deterministic step i of a stream over both bases:
// two ΔGs, then a ΔD and a keyword change addressed to product in one
// round of four steps and to company in the next.
func domainStep(st *DurableStore, w *world, companies *rel.Relation, i int) error {
	target := stepTarget(i)
	switch i % 4 {
	case 0, 1:
		_, err := st.ApplyGraphUpdate(graph.RandomMixedBatch(st.Graph(), mat.NewRNG(uint64(3000+i)), 4))
		return err
	case 2:
		d := w.products.Clone()
		if target == "company" {
			d = companies.Clone()
		}
		d.Tuples = d.Tuples[1+i/8:]
		_, err := st.ApplyRelationUpdate(target, d)
		return err
	default:
		kws := [][]string{{"company"}, {"company", "country"}}[(i/8)%2]
		if target == "company" {
			kws = []string{"country"}
		}
		_, err := st.UpdateKeywords(target, kws)
		return err
	}
}

// stepTarget is the base domainStep i addresses a ΔD or keyword change
// to.
func stepTarget(i int) string { return [2]string{"product", "company"}[(i/4)%2] }

// freshBase extracts b's D from scratch over g under b's scheme: what
// IncExt must have kept b's h(D,G) equal to.
func freshBase(t *testing.T, w *world, matcher her.Matcher, g *graph.Graph, b *BaseMaterialization) *rel.Relation {
	t.Helper()
	cfg := domainCfg
	cfg.Keywords = b.AR()
	cfg.MaxAttrs = len(b.AR())
	want, err := NewExtractor(g, w.models, cfg).ExtractWithScheme(b.Spec.D, b.Extractor.Scheme(), matcher.Match(b.Spec.D, g))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDurableDomainGraphUpdateMaintainsEveryBase: one ΔG, logged once
// through the domain's store, is applied to the graph once and
// re-extracts every base over it; each base's h(D,G) equals a
// from-scratch extraction on the version's (D, G), and ΔD and keyword
// records change only the base they name.
func TestDurableDomainGraphUpdateMaintainsEveryBase(t *testing.T) {
	ctx := context.Background()
	w, m, companies, matcher := durableDomain(t)
	st, err := m.OpenDurable(ctx, "db", DurableBoot{Models: w.models, Cfg: domainCfg}, DurableOptions{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := m.OpenDurable(ctx, "db2", DurableBoot{Models: w.models, Cfg: domainCfg}, DurableOptions{FS: wal.NewMemFS()}); err == nil {
		t.Fatal("a second store opened over one materialisation")
	}
	if got := st.Bases(); len(got) != 2 || got[0] != "company" || got[1] != "product" {
		t.Fatalf("domain bases = %v", got)
	}
	for i := 0; i < 8; i++ {
		prev := st.Version()
		if err := domainStep(st, w, companies, i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		ver := st.Version()
		if ver.Seq != uint64(i+1) || m.View().Seq() != ver.Seq {
			t.Fatalf("step %d: version seq %d, view seq %d, want %d", i, ver.Seq, m.View().Seq(), i+1)
		}
		for _, name := range []string{"company", "product"} {
			b, was := ver.Base(name), prev.Base(name)
			changed := b.state != was.state
			switch {
			case i%4 < 2 && !changed:
				t.Fatalf("step %d: a ΔG did not re-extract %s", i, name)
			case i%4 >= 2 && changed != (name == stepTarget(i)):
				t.Fatalf("step %d: %s changed = %v by an update addressed to the other base", i, name, changed)
			}
			if want := freshBase(t, w, matcher, ver.G, b); !sameRelation(b.Extracted, want) {
				t.Fatalf("step %d: %s's h(D,G) differs from a from-scratch extraction on the same (D, G)", i, name)
			}
		}
	}
	if _, err := st.ApplyRelationUpdate("nosuch", companies); err == nil || st.LastSeq() != 8 {
		t.Fatalf("update to a base outside the domain: %v, log at %d", err, st.LastSeq())
	}
}

// TestDurableDomainCrashRecovery crashes a two-base domain mid-stream —
// after a checkpoint, with an unsynced tail — and recovers it from the
// snapshot and the log: the graph and both bases land exactly on the
// state of the synced prefix. A snapshot is only ever opened with the
// base set it holds.
func TestDurableDomainCrashRecovery(t *testing.T) {
	ctx := context.Background()
	mem := wal.NewMemFS()
	w, m, companies, matcher := durableDomain(t)
	st, err := m.OpenDurable(ctx, "db", DurableBoot{Models: w.models, Cfg: domainCfg},
		DurableOptions{Policy: wal.SyncBatch, BatchEvery: 3, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	const n = 11
	states := make([]*Version, n+1)
	states[0] = st.Version()
	for i := 0; i < n; i++ {
		if i == 4 {
			if err := st.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := domainStep(st, w, companies, i); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		states[i+1] = st.Version()
	}
	durable := st.log.SyncedSeq()
	if durable <= st.SnapshotSeq() || durable >= n {
		t.Fatalf("SyncedSeq = %d, SnapshotSeq = %d: the crash must lose a tail past the snapshot's suffix", durable, st.SnapshotSeq())
	}
	mem.Crash()

	_, one := durableWorld(t)
	if _, err := OpenDurable(ctx, "db", DurableBoot{Base: one, Models: w.models, Cfg: domainCfg, Matcher: matcher},
		DurableOptions{FS: mem}); !errors.Is(err, ErrDomainBases) {
		t.Fatalf("one-base open over a two-base snapshot: %v, want ErrDomainBases", err)
	}
	st2, err := OpenDurable(ctx, "db", DurableBoot{Models: w.models, Cfg: domainCfg, Matcher: matcher}, DurableOptions{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.LastSeq() != durable || st2.ReplaySkipped() != 0 {
		t.Fatalf("recovered through seq %d (%d skipped), SyncedSeq promised %d", st2.LastSeq(), st2.ReplaySkipped(), durable)
	}
	got, want := st2.Version(), states[durable]
	if !bytes.Equal(graphBytes(t, got.G), graphBytes(t, want.G)) {
		t.Fatal("recovered graph differs from the synced prefix's")
	}
	for _, name := range []string{"company", "product"} {
		gb, wb := got.Base(name), want.Base(name)
		if !sameRelation(gb.Extracted, wb.Extracted) || !sameRelation(gb.Spec.D, wb.Spec.D) ||
			!sameRelation(gb.MatchRelation(), wb.MatchRelation()) {
			t.Fatalf("%s: recovered state differs from the synced prefix's", name)
		}
	}
	// The recovered domain keeps maintaining both bases.
	if err := domainStep(st2, w, companies, n+1); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"company", "product"} {
		if st2.Version().Base(name).state == got.Base(name).state {
			t.Fatalf("a ΔG after recovery did not re-extract %s", name)
		}
	}
}
