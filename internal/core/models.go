package core

import (
	"strings"

	"semjoin/internal/embed"
	"semjoin/internal/graph"
	"semjoin/internal/mat"
	"semjoin/internal/nn"
)

// Models bundles the learned components RExt depends on: the sequence
// model Mρ (LSTM by default; Transformer for the RExtBertSeq baseline) and
// the word embedder Me (GloVe-style by default; Transformer adapter for
// RExtBertEmb, hashing for ablations). RandomPaths disables Mρ-guided
// selection entirely (the RndPath baseline).
type Models struct {
	Seq         nn.SequenceModel
	Word        embed.Embedder
	RandomPaths bool
}

// BuildCorpus collects random-walk label sentences from g: walksPerVertex
// walks of walkLen steps from every vertex, rendered as alternating
// vertex/edge-label sequences (§III-A: "conduct random walk in G and
// collect sequences of edge/vertex labels ... to build a training
// corpus"). Construction is unsupervised.
func BuildCorpus(g *graph.Graph, walksPerVertex, walkLen int, seed uint64) [][]string {
	rng := mat.NewRNG(seed)
	var corpus [][]string
	g.Vertices(func(v graph.Vertex) {
		for w := 0; w < walksPerVertex; w++ {
			p := g.RandomWalk(rng, v.ID, walkLen)
			if p.Len() == 0 {
				continue
			}
			corpus = append(corpus, g.WalkSentence(p))
		}
	})
	// Cap the corpus: on large graphs full coverage is unnecessary for a
	// label-sequence model and training time must stay bounded (the paper
	// trains its LSTM on 10M-edge graphs in ~minutes, which implies
	// sampled walks). Deterministic down-sampling keeps reproducibility.
	const maxSentences = 1500
	if len(corpus) > maxSentences {
		rng.Shuffle(len(corpus), func(i, j int) { corpus[i], corpus[j] = corpus[j], corpus[i] })
		corpus = corpus[:maxSentences]
	}
	return corpus
}

// TypeSentences renders one "L(v) τ" sentence per typed vertex of g.
// Word-embedding training consumes them so that value tokens ("UK")
// become cosine-close to their class word ("country") — the geometry the
// paper gets for free from pretrained GloVe and that RExt's third ranking
// term relies on to align user keywords with extracted values. The
// sentences are deliberately two tokens (distance-1 co-occurrence, the
// strongest GloVe weighting) with no filler words that would couple
// unrelated classes.
func TypeSentences(g *graph.Graph) [][]string {
	var out [][]string
	g.Vertices(func(v graph.Vertex) {
		if v.Type == "" {
			return
		}
		out = append(out, []string{v.Label, v.Type})
	})
	return out
}

// TrainingText is the one recipe for the text the default models train
// on: the random-walk corpus of g (3 walks of 8 steps per vertex), the
// vocabulary over it, and the word-embedding corpus — the walks plus
// the type sentences of g, replicated. TrainModels and the experiment
// harness's per-variant training both start here.
func TrainingText(g *graph.Graph, seed uint64) (walks [][]string, vocab *nn.Vocab, glove [][]string) {
	walks = BuildCorpus(g, 3, 8, seed)
	// Prune singleton tokens on large corpora: rare periphery labels
	// become UNK, which keeps the LSTM's softmax layer (and training
	// time) proportional to the label vocabulary that actually matters.
	minCount := 1
	if len(walks) > 1000 {
		minCount = 2
	}
	vocab = nn.BuildVocab(walks, minCount)
	// Type sentences are few (one per typed vertex) against thousands of
	// walk sentences; replicate them so the value↔class co-occurrence is
	// strong enough for GloVe to encode.
	types := TypeSentences(g)
	reps := 20
	if len(types) > 0 && len(walks)/len(types) > reps {
		reps = len(walks) / len(types)
	}
	glove = append([][]string(nil), walks...)
	for r := 0; r < reps; r++ {
		glove = append(glove, types...)
	}
	return walks, vocab, glove
}

// TrainModels trains the default model pair on g: an LSTM language model
// over the random-walk corpus, and GloVe-style word vectors over the same
// corpus plus the type sentences of the graph (TrainingText). epochs
// controls LSTM training passes.
func TrainModels(g *graph.Graph, epochs int, seed uint64) Models {
	walks, vocab, gloveText := TrainingText(g, seed)
	lstm := nn.NewLSTM(vocab, nn.LSTMConfig{Seed: seed})
	lstm.Train(walks, epochs)
	glove := embed.TrainGloVe(gloveText, embed.GloVeConfig{Seed: seed})
	return Models{Seq: lstm, Word: NewTypeAwareEmbedder(g, glove, 2, seed)}
}

// TypeAwareEmbedder augments a word embedder with a type channel: the
// embedding of a known vertex label (or of a type name itself) gains a
// near-orthogonal unit component identifying its vertex type. Pretrained
// GloVe gives the paper this lexical-class signal ("UK" is a country-like
// word) for free; corpus-trained vectors on a small graph cannot separate
// adjacent classes (cities co-occur with their countries as strongly as
// countries do with the word "country"), so the graph's own type system
// supplies the class channel. See DESIGN.md, substitutions.
type TypeAwareEmbedder struct {
	inner embed.Embedder
	types map[string]string // lowercase label -> type; type name -> itself
	hash  *embed.HashEmbedder
	alpha float64
	seed  uint64
}

// NewTypeAwareEmbedder indexes g's labels and types. alpha weights the
// type channel against the (unit-normalised) word channel; 1 balances
// them.
func NewTypeAwareEmbedder(g *graph.Graph, inner embed.Embedder, alpha float64, seed uint64) *TypeAwareEmbedder {
	t := &TypeAwareEmbedder{
		inner: inner,
		types: map[string]string{},
		hash:  embed.NewHashEmbedder(32, seed^0xabcd),
		alpha: alpha,
		seed:  seed,
	}
	g.Vertices(func(v graph.Vertex) {
		if v.Type == "" {
			return
		}
		key := strings.ToLower(v.Label)
		if _, ok := t.types[key]; !ok {
			t.types[key] = v.Type
		}
		t.types[strings.ToLower(v.Type)] = v.Type
	})
	return t
}

// Dim returns the combined dimensionality.
func (t *TypeAwareEmbedder) Dim() int { return t.inner.Dim() + t.hash.Dim() }

// Embed returns concat(L2(inner(text)), alpha·hash(type(text))), with a
// zero type channel for strings that are neither labels nor type names.
func (t *TypeAwareEmbedder) Embed(text string) mat.Vector {
	w := mat.Normalize(t.inner.Embed(text))
	var tc mat.Vector
	if typ, ok := t.types[strings.ToLower(text)]; ok {
		tc = t.hash.Embed(typ)
		tc.Scale(t.alpha)
	} else {
		tc = mat.NewVector(t.hash.Dim())
	}
	return mat.Concat(w, tc)
}

// TransformerWordEmbedder adapts a Transformer sequence model into a word
// embedder (the RExtBertEmb baseline): a label embeds as the final-position
// representation of its word tokens.
type TransformerWordEmbedder struct {
	M *nn.Transformer
}

// Embed returns the Transformer representation of text's word tokens.
func (t TransformerWordEmbedder) Embed(text string) mat.Vector {
	toks := embed.Tokenize(text)
	if len(toks) == 0 {
		return mat.NewVector(t.M.EmbedDim())
	}
	return t.M.EmbedSequence(toks)
}

// Dim returns the embedding dimensionality.
func (t TransformerWordEmbedder) Dim() int { return t.M.EmbedDim() }
