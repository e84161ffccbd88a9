package expr

import (
	"fmt"
	"strings"
	"sync"

	"semjoin/internal/core"
	"semjoin/internal/dataset"
	"semjoin/internal/embed"
	"semjoin/internal/nn"
)

// Variant names one extraction method of Exp-2's ablation study.
type Variant string

// The method variants compared throughout §V.
const (
	// VRExt is the paper's method: LSTM Mρ + GloVe-style Me.
	VRExt Variant = "RExt"
	// VBertEmb swaps Me for a Transformer encoder (RExtBertEmb).
	VBertEmb Variant = "RExtBertEmb"
	// VShortEmb halves the word-embedding width (RExtShortEmb).
	VShortEmb Variant = "RExtShortEmb"
	// VBertSeq swaps Mρ for a Transformer (RExtBertSeq).
	VBertSeq Variant = "RExtBertSeq"
	// VShortSeq narrows the LSTM hidden layer (RExtShortSeq).
	VShortSeq Variant = "RExtShortSeq"
	// VRndPath replaces Mρ-guided selection with random walks (RndPath).
	VRndPath Variant = "RndPath"
)

// Variants lists all method variants in the paper's legend order.
func Variants() []Variant {
	return []Variant{VRExt, VBertEmb, VShortEmb, VBertSeq, VShortSeq, VRndPath}
}

// Run bundles one generated collection with its (lazily) trained models.
type Run struct {
	C    *dataset.Collection
	Seed uint64
	// Epochs for sequence-model training.
	Epochs int

	mu        sync.Mutex
	corpus    [][]string
	glove     [][]string // corpus + replicated type sentences
	vocab     *nn.Vocab
	models    map[Variant]core.Models
	seqCache  map[Variant]nn.SequenceModel
	wordCache map[Variant]embed.Embedder
}

// Prepare generates a collection at the given scale and returns a
// Run. The name reaches this function from user input (the
// -collection flag of cmd/gsql and cmd/rextprofile), so an unknown
// collection is an error, not a panic.
func Prepare(name string, entities int, seed uint64) (*Run, error) {
	gen := dataset.ByName(name)
	if gen == nil {
		return nil, fmt.Errorf("expr: unknown collection %q (known: %s)", name, strings.Join(dataset.Names(), ", "))
	}
	c := gen(dataset.Config{Entities: entities, Seed: seed})
	return &Run{C: c, Seed: seed, Epochs: 6, models: map[Variant]core.Models{}}, nil
}

// mustPrepare unwraps Prepare for the experiment harness, whose
// figure-producing entry points have no error channel and only ever
// pass the compiled-in collection names.
func mustPrepare(r *Run, err error) *Run {
	if err != nil {
		panic(err) //lint:allow nopanic experiment harness with hard-coded collection names; no error channel in the Figure API
	}
	return r
}

// ensureCorpus builds the shared training text once.
func (r *Run) ensureCorpus() {
	if r.corpus == nil {
		r.corpus, r.vocab, r.glove = core.TrainingText(r.C.G, r.Seed)
	}
}

// Models returns the trained model pair for a variant, training on first
// use. Sub-models are shared across variants where the paper shares them
// (e.g. every variant except the *Emb ones uses the same GloVe).
func (r *Run) Models(v Variant) core.Models {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.models[v]; ok {
		return m
	}
	r.ensureCorpus()

	lstm := func(hidden int) *nn.LSTM {
		m := nn.NewLSTM(r.vocab, nn.LSTMConfig{HiddenDim: hidden, Seed: r.Seed})
		m.Train(r.corpus, r.Epochs)
		return m
	}
	// Every variant's word embedder gets the type channel (the paper uses
	// the same pretrained-GloVe family everywhere; the channel is part of
	// our Me substitution, see DESIGN.md).
	glove := func(dim int) embed.Embedder {
		g := embed.TrainGloVe(r.glove, embed.GloVeConfig{Dim: dim, Seed: r.Seed})
		return core.NewTypeAwareEmbedder(r.C.G, g, 2, r.Seed)
	}

	var m core.Models
	switch v {
	case VRExt:
		m = core.Models{Seq: r.seqOf(VRExt, func() nn.SequenceModel { return lstm(64) }),
			Word: r.wordOf(VRExt, func() embed.Embedder { return glove(64) })}
	case VBertEmb:
		m = core.Models{Seq: r.seqOf(VRExt, func() nn.SequenceModel { return lstm(64) }),
			Word: r.wordOf(VBertEmb, func() embed.Embedder {
				tf := nn.NewTransformer(r.vocab, nn.TransformerConfig{Seed: r.Seed})
				tf.Train(r.glove, r.Epochs)
				return core.NewTypeAwareEmbedder(r.C.G, core.TransformerWordEmbedder{M: tf}, 2, r.Seed)
			})}
	case VShortEmb:
		m = core.Models{Seq: r.seqOf(VRExt, func() nn.SequenceModel { return lstm(64) }),
			Word: r.wordOf(VShortEmb, func() embed.Embedder { return glove(32) })}
	case VBertSeq:
		m = core.Models{Seq: r.seqOf(VBertSeq, func() nn.SequenceModel {
			tf := nn.NewTransformer(r.vocab, nn.TransformerConfig{Seed: r.Seed})
			tf.Train(r.corpus, r.Epochs)
			return tf
		}), Word: r.wordOf(VRExt, func() embed.Embedder { return glove(64) })}
	case VShortSeq:
		m = core.Models{Seq: r.seqOf(VShortSeq, func() nn.SequenceModel { return lstm(16) }),
			Word: r.wordOf(VRExt, func() embed.Embedder { return glove(64) })}
	case VRndPath:
		m = core.Models{RandomPaths: true,
			Word: r.wordOf(VRExt, func() embed.Embedder { return glove(64) })}
	default:
		panic("expr: unknown variant " + string(v)) //lint:allow nopanic exhaustive switch over the closed Variant enum
	}
	r.models[v] = m
	return m
}

// seqOf / wordOf memoise sub-models under a sharing key so variants that
// share a component (every non-*Seq variant uses the same LSTM, every
// non-*Emb variant the same GloVe) train it once.
func (r *Run) seqOf(key Variant, build func() nn.SequenceModel) nn.SequenceModel {
	if r.seqCache == nil {
		r.seqCache = map[Variant]nn.SequenceModel{}
	}
	if m, ok := r.seqCache[key]; ok {
		return m
	}
	m := build()
	r.seqCache[key] = m
	return m
}

func (r *Run) wordOf(key Variant, build func() embed.Embedder) embed.Embedder {
	if r.wordCache == nil {
		r.wordCache = map[Variant]embed.Embedder{}
	}
	if m, ok := r.wordCache[key]; ok {
		return m
	}
	m := build()
	r.wordCache[key] = m
	return m
}
