package core

import (
	"fmt"
	"io"
	"sort"

	"semjoin/internal/bin"
	"semjoin/internal/embed"
	"semjoin/internal/graph"
	"semjoin/internal/her"
	"semjoin/internal/nn"
	"semjoin/internal/rel"
)

// SaveModels persists a trained model pair: the LSTM Mρ, the GloVe-style
// inner word embedder and the type-channel index. Only the default
// implementations round-trip (LSTM + TypeAwareEmbedder over GloVe);
// Transformer baselines and RandomPaths configurations are experiment
// devices, not deployment artifacts.
func SaveModels(out io.Writer, m Models) error {
	lstm, ok := m.Seq.(*nn.LSTM)
	if !ok {
		return fmt.Errorf("core: only LSTM sequence models persist (got %T)", m.Seq)
	}
	tae, ok := m.Word.(*TypeAwareEmbedder)
	if !ok {
		return fmt.Errorf("core: only TypeAwareEmbedder word embedders persist (got %T)", m.Word)
	}
	glove, ok := tae.inner.(*embed.GloVe)
	if !ok {
		return fmt.Errorf("core: only GloVe inner embedders persist (got %T)", tae.inner)
	}
	w := bin.NewWriter(out)
	w.Header("models", 1)
	if err := w.Err(); err != nil {
		return err
	}
	if err := lstm.Save(out); err != nil {
		return err
	}
	if err := glove.Save(out); err != nil {
		return err
	}
	// Type channel: alpha, hash seed and the label->type index.
	w.F64(tae.alpha)
	w.U64(tae.seed)
	keys := make([]string, 0, len(tae.types))
	for k := range tae.types {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.String(k)
		w.String(tae.types[k])
	}
	return w.Err()
}

// LoadModels restores a model pair written by SaveModels.
func LoadModels(in io.Reader) (Models, error) {
	r := bin.NewReader(in)
	if v := r.Header("models"); r.Err() == nil && v != 1 {
		return Models{}, fmt.Errorf("core: unsupported models version %d", v)
	}
	if err := r.Err(); err != nil {
		return Models{}, err
	}
	lstm, err := nn.LoadLSTM(in)
	if err != nil {
		return Models{}, err
	}
	glove, err := embed.LoadGloVe(in)
	if err != nil {
		return Models{}, err
	}
	tae := &TypeAwareEmbedder{
		inner: glove,
		types: map[string]string{},
	}
	tae.alpha = r.F64()
	tae.seed = r.U64()
	tae.hash = embed.NewHashEmbedder(32, tae.seed^0xabcd)
	n := r.Len()
	for i := 0; i < n; i++ {
		k := r.String()
		tae.types[k] = r.String()
	}
	if err := r.Err(); err != nil {
		return Models{}, err
	}
	return Models{Seq: lstm, Word: tae}, nil
}

// SaveScheme persists an extraction scheme (the extracted schema RG plus
// the selected pattern clusters with their keyword embeddings), so that
// Algorithm 1 can run on new data or a new graph version without
// re-discovery (see Extractor.ExtractWithScheme).
func SaveScheme(out io.Writer, s *Scheme) error {
	w := bin.NewWriter(out)
	w.Header("scheme", 1)
	w.String(s.Schema.Name)
	w.Int(s.K)
	w.Int(len(s.Clusters))
	for _, pc := range s.Clusters {
		w.String(pc.Attr)
		w.F64s(pc.attrVec)
		w.Int(len(pc.Patterns))
		for _, p := range pc.Patterns {
			w.Strings([]string(p))
		}
	}
	return w.Err()
}

// LoadScheme restores a scheme written by SaveScheme.
func LoadScheme(in io.Reader) (*Scheme, error) {
	r := bin.NewReader(in)
	if v := r.Header("scheme"); r.Err() == nil && v != 1 {
		return nil, fmt.Errorf("core: unsupported scheme version %d", v)
	}
	name := r.String()
	k := r.Int()
	n := r.Len()
	s := &Scheme{K: k}
	attrs := []rel.Attribute{{Name: "vid", Type: rel.KindInt}}
	for i := 0; i < n; i++ {
		pc := PatternCluster{
			Attr:    r.String(),
			attrVec: r.F64s(),
			patKeys: map[string]bool{},
		}
		np := r.Len()
		for j := 0; j < np; j++ {
			p := PathPattern(r.Strings())
			pc.Patterns = append(pc.Patterns, p)
			pc.patKeys[p.Key()] = true
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		s.Clusters = append(s.Clusters, pc)
		attrs = append(attrs, rel.Attribute{Name: pc.Attr, Type: rel.KindString})
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	s.Schema = rel.NewSchema(name, "vid", attrs...)
	return s, nil
}

// SaveBase persists one base materialisation — the reference keywords AR,
// the current match relation f(D,G), the extracted relation h(D,G) and
// the extraction scheme — everything a fresh process needs to answer
// well-behaved static joins without re-running HER or RExt.
func SaveBase(out io.Writer, b *BaseMaterialization) error {
	w := bin.NewWriter(out)
	w.Header("base", 1)
	w.Strings(b.Spec.AR)
	if err := w.Err(); err != nil {
		return err
	}
	ex := b.Extractor
	if err := ex.MatchRelation().Save(out); err != nil {
		return err
	}
	if err := ex.Result().Save(out); err != nil {
		return err
	}
	return SaveScheme(out, ex.Scheme())
}

// LoadBase restores a materialisation written by SaveBase. The returned
// value answers static joins; incremental maintenance additionally needs
// the graph and models, which the caller re-attaches via RebindExtractor.
func LoadBase(in io.Reader, d *rel.Relation, g *graph.Graph, models Models, matcher her.Matcher, cfg Config) (*BaseMaterialization, error) {
	r := bin.NewReader(in)
	if v := r.Header("base"); r.Err() == nil && v != 1 {
		return nil, fmt.Errorf("core: unsupported base version %d", v)
	}
	ar := r.Strings()
	if err := r.Err(); err != nil {
		return nil, err
	}
	matchRel, err := rel.LoadRelation(in)
	if err != nil {
		return nil, err
	}
	extracted, err := rel.LoadRelation(in)
	if err != nil {
		return nil, err
	}
	scheme, err := LoadScheme(in)
	if err != nil {
		return nil, err
	}
	cfg.Keywords = ar
	cfg.K = scheme.K
	ex := NewExtractor(g, models, cfg)
	ex.scheme = scheme
	ex.install(d, matchesFromRelation(d, matchRel), extracted)
	return &BaseMaterialization{
		Spec:      BaseSpec{D: d, AR: ar, Matcher: matcher},
		Extractor: ex,
		Extracted: extracted,
	}, nil
}

// matchesFromRelation reconstructs her.Match values from a persisted
// match relation, re-resolving tuple indexes against d by key.
func matchesFromRelation(d *rel.Relation, matchRel *rel.Relation) []her.Match {
	keyCol := d.Schema.KeyCol()
	byTID := map[string]int{}
	if keyCol >= 0 {
		for i, t := range d.Tuples {
			byTID[t[keyCol].String()] = i
		}
	}
	tidCol := 0
	vidCol := matchRel.Schema.Col("vid")
	var out []her.Match
	for _, t := range matchRel.Tuples {
		idx, ok := byTID[t[tidCol].String()]
		if !ok {
			continue
		}
		out = append(out, her.Match{
			TupleIdx: idx, TID: t[tidCol],
			Vertex: graph.VertexID(t[vidCol].Int()), Score: 1,
		})
	}
	return out
}
