package prop

import (
	"bytes"
	"fmt"

	"semjoin/internal/core"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/rel"
)

// CheckPersist is oracle 4: persistence round-trips must be
// behaviour-preserving. Three layers are checked per seed — the
// relation codec reproduces the relation exactly; a base
// materialisation survives SaveBase/LoadBase with its match and
// extraction relations intact and its loaded scheme re-extracting the
// identical h(D,G); and, strongest, the loaded extractor maintains the
// same results as the original under an identical ΔG stream.
func CheckPersist(seed int64, _ Stream) error {
	w := NewWorkload(seed)

	// Layer 1: relation codec round-trip.
	var rbuf bytes.Buffer
	if err := w.Products.Save(&rbuf); err != nil {
		return fmt.Errorf("harness: Save relation: %w", err)
	}
	r2, err := rel.LoadRelation(&rbuf)
	if err != nil {
		return fmt.Errorf("relation round-trip failed to load: %w", err)
	}
	if d := difftest.Diff(w.Products, r2); d != "" {
		return fmt.Errorf("relation round-trip not identity: %s", d)
	}

	// Layer 2: base materialisation round-trip.
	m, err := w.Materialize()
	if err != nil {
		return fmt.Errorf("harness: materialize: %w", err)
	}
	b := m.Base("product")
	var bbuf bytes.Buffer
	if err := core.SaveBase(&bbuf, b); err != nil {
		return fmt.Errorf("harness: SaveBase: %w", err)
	}
	g2 := w.G.Clone()
	lb, err := core.LoadBase(&bbuf, w.Products, g2, w.Models, w.Matcher, w.Cfg)
	if err != nil {
		return fmt.Errorf("base round-trip failed to load: %w", err)
	}
	if d := difftest.Diff(b.Extractor.MatchRelation(), lb.Extractor.MatchRelation()); d != "" {
		return fmt.Errorf("base round-trip changed f(D,G): %s", d)
	}
	if d := difftest.Diff(b.Extracted, lb.Extracted); d != "" {
		return fmt.Errorf("base round-trip changed h(D,G): %s", d)
	}

	// The loaded scheme must drive extraction to the same h(D,G): a
	// fresh extractor over the cloned graph, handed the deserialised
	// scheme, must reproduce the persisted extraction bit for bit.
	cfg := w.Cfg
	cfg.Keywords = w.AR
	cfg.MaxAttrs = len(w.AR)
	ref := core.NewExtractor(g2, w.Models, cfg)
	again, err := ref.ExtractWithScheme(w.Products, lb.Extractor.Scheme(), w.Matcher.Match(w.Products, g2))
	if err != nil {
		return fmt.Errorf("loaded-scheme extraction: %w", err)
	}
	if d := difftest.Diff(b.Extracted, again); d != "" {
		return fmt.Errorf("loaded scheme does not reproduce h(D,G): %s", d)
	}

	// Layer 3: behaviour preservation under maintenance. The original
	// and the loaded extractor see the same ΔG stream on their own
	// graph copies and must stay in lockstep.
	for i, st := range w.GenStream(4) {
		if st.Kind != StepGraph {
			continue
		}
		if _, err := b.Extractor.ApplyGraphUpdate(st.Batch, w.Matcher); err != nil {
			return fmt.Errorf("harness: step %d original ApplyGraphUpdate: %w", i, err)
		}
		if _, err := lb.Extractor.ApplyGraphUpdate(st.Batch, w.Matcher); err != nil {
			return fmt.Errorf("harness: step %d loaded ApplyGraphUpdate: %w", i, err)
		}
	}
	if d := difftest.Diff(b.Extractor.Result(), lb.Extractor.Result()); d != "" {
		return fmt.Errorf("original and loaded extractors diverged under the same ΔG stream: %s", d)
	}
	return nil
}
