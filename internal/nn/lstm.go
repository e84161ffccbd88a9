package nn

import (
	"math"
	"sort"

	"semjoin/internal/mat"
)

// TokenProb pairs a token with its predicted next-token probability.
type TokenProb struct {
	Token string
	Prob  float64
}

// SequenceModel is the contract RExt needs from Mρ (§III-A): score which
// label plausibly follows a prefix, and embed a whole label sequence.
// Both the LSTM and the Transformer baseline implement it.
type SequenceModel interface {
	// Start returns a fresh decoding state positioned after BOS.
	Start() State
	// EmbedSequence returns the model's representation of the token
	// sequence (the network output at the last step, per §III-A step 2).
	EmbedSequence(tokens []string) mat.Vector
	// EmbedDim returns the dimensionality of EmbedSequence results.
	EmbedDim() int
	// Vocab returns the model's vocabulary.
	Vocab() *Vocab
}

// State is an incremental decoding state. Path selection clones states to
// branch over alternative edges without re-running the prefix.
type State interface {
	// Feed advances the state by one token.
	Feed(token string)
	// Probs returns the next-token distribution (indexed by vocab id).
	// The returned vector is owned by the caller.
	Probs() mat.Vector
	// Scores appends to dst the model's output score of each token as
	// the next token — its pre-softmax logit, -Inf for a token outside
	// the vocabulary — and returns the extended slice. Tokens order by
	// score exactly as they order by Probs() (softmax is monotone, and
	// an out-of-vocabulary token ranks below every real one), at the
	// cost of one output row per token instead of the whole vocabulary.
	Scores(dst []float64, tokens []string) []float64
	// Hidden returns the current sequence representation. The returned
	// vector is owned by the caller.
	Hidden() mat.Vector
	// Clone returns an independent copy of the state.
	Clone() State
}

// LSTMConfig parameterises NewLSTM. Zero fields take defaults.
type LSTMConfig struct {
	EmbedDim  int     // token embedding size (default 32)
	HiddenDim int     // LSTM hidden size (default 64; 50-wide ≈ RExtShortSeq)
	LR        float64 // Adam learning rate (default 0.003)
	Clip      float64 // gradient clip (default 5)
	Seed      uint64  // init seed (default 1)
}

func (c LSTMConfig) withDefaults() LSTMConfig {
	if c.EmbedDim == 0 {
		c.EmbedDim = 32
	}
	if c.HiddenDim == 0 {
		c.HiddenDim = 64
	}
	if c.LR == 0 {
		c.LR = 0.003
	}
	if c.Clip == 0 {
		c.Clip = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// LSTM is a single-layer LSTM language model with a softmax output layer,
// trained with the perplexity (cross-entropy) loss of [16] on random-walk
// label sentences.
type LSTM struct {
	vocab *Vocab
	cfg   LSTMConfig

	emb *mat.Matrix // V×d token embeddings
	wx  *mat.Matrix // 4h×d input weights (gate order: i, f, g, o)
	wh  *mat.Matrix // 4h×h recurrent weights
	b   mat.Vector  // 4h gate biases
	wo  *mat.Matrix // V×h output projection
	bo  mat.Vector  // V output bias

	optEmb, optWx, optWh, optWo, optB, optBo *Adam
}

// NewLSTM builds an untrained model over vocab.
func NewLSTM(vocab *Vocab, cfg LSTMConfig) *LSTM {
	cfg = cfg.withDefaults()
	V, d, h := vocab.Size(), cfg.EmbedDim, cfg.HiddenDim
	m := &LSTM{
		vocab: vocab, cfg: cfg,
		emb: mat.NewMatrix(V, d),
		wx:  mat.NewMatrix(4*h, d),
		wh:  mat.NewMatrix(4*h, h),
		b:   mat.NewVector(4 * h),
		wo:  mat.NewMatrix(V, h),
		bo:  mat.NewVector(V),
	}
	rng := mat.NewRNG(cfg.Seed)
	initScale := func(mx *mat.Matrix, fanIn int) {
		a := math.Sqrt(1.0 / float64(fanIn))
		rng.FillUniform(mat.Vector(mx.Data), a)
	}
	initScale(m.emb, d)
	initScale(m.wx, d)
	initScale(m.wh, h)
	initScale(m.wo, h)
	// Forget-gate bias starts at 1 (standard trick for gradient flow).
	for i := h; i < 2*h; i++ {
		m.b[i] = 1
	}
	m.optEmb = NewAdam(len(m.emb.Data), cfg.LR)
	m.optWx = NewAdam(len(m.wx.Data), cfg.LR)
	m.optWh = NewAdam(len(m.wh.Data), cfg.LR)
	m.optWo = NewAdam(len(m.wo.Data), cfg.LR)
	m.optB = NewAdam(len(m.b), cfg.LR)
	m.optBo = NewAdam(len(m.bo), cfg.LR)
	return m
}

// Vocab returns the model vocabulary.
func (m *LSTM) Vocab() *Vocab { return m.vocab }

// EmbedDim returns the hidden size (the dimensionality of sequence
// embeddings).
func (m *LSTM) EmbedDim() int { return m.cfg.HiddenDim }

// preact computes the gate pre-activations z = Wx·x(id) + Wh·hPrev + b
// (gate order i, f, g, o) into z, using tmp (same length) as scratch.
func (m *LSTM) preact(z, tmp mat.Vector, id int, hPrev mat.Vector) {
	m.wx.MulVec(z, m.emb.Row(id))
	m.wh.MulVec(tmp, hPrev)
	z.Add(tmp)
	z.Add(m.b)
}

// lstmState implements State. It owns its vectors — h, c and the gate
// scratch z, tmp are slices of one allocation — so Feed allocates
// nothing.
type lstmState struct {
	m      *LSTM
	h, c   mat.Vector
	z, tmp mat.Vector
}

func (m *LSTM) newState() *lstmState {
	h := m.cfg.HiddenDim
	buf := mat.NewVector(10 * h)
	return &lstmState{m: m, h: buf[:h], c: buf[h : 2*h], z: buf[2*h : 6*h], tmp: buf[6*h:]}
}

// Start returns a state positioned after BOS.
func (m *LSTM) Start() State {
	s := m.newState()
	s.Feed(BOS)
	return s
}

// Feed advances the state by one token: the training recurrence's
// arithmetic (lstmTrainer.recur), updating h and c in place.
func (s *lstmState) Feed(token string) {
	h := len(s.h)
	z := s.z
	s.m.preact(z, s.tmp, s.m.vocab.ID(token), s.h)
	for j := 0; j < h; j++ {
		i, f := mat.Sigmoid(z[j]), mat.Sigmoid(z[h+j])
		g, o := mat.Tanh(z[2*h+j]), mat.Sigmoid(z[3*h+j])
		s.c[j] = f*s.c[j] + i*g
		s.h[j] = o * mat.Tanh(s.c[j])
	}
}

// Probs returns the next-token distribution.
func (s *lstmState) Probs() mat.Vector {
	logits := mat.NewVector(s.m.vocab.Size())
	s.m.wo.MulVec(logits, s.h)
	logits.Add(s.m.bo)
	return mat.Softmax(logits, logits)
}

// Scores returns the output logit of each token: its row of the output
// projection against h, as Probs computes it before the softmax.
func (s *lstmState) Scores(dst []float64, tokens []string) []float64 {
	return appendScores(dst, tokens, s.m.vocab, s.m.wo, s.m.bo, s.h)
}

// appendScores appends, per token, the logit out.Row(id)·rep + bias[id]
// — the value MulVec and Add produce for that row — or -Inf when the
// token is not in vocab.
func appendScores(dst []float64, tokens []string, vocab *Vocab, out *mat.Matrix, bias, rep mat.Vector) []float64 {
	for _, tok := range tokens {
		id, ok := vocab.byToken[tok]
		if !ok {
			dst = append(dst, math.Inf(-1))
			continue
		}
		dst = append(dst, mat.Dot(out.Row(id), rep)+bias[id])
	}
	return dst
}

// Hidden returns a copy of the hidden state.
func (s *lstmState) Hidden() mat.Vector { return s.h.Clone() }

// Clone returns an independent copy.
func (s *lstmState) Clone() State {
	c := s.m.newState()
	copy(c.h, s.h)
	copy(c.c, s.c)
	return c
}

// EmbedSequence feeds tokens through the model and returns the final
// hidden state, matching the paper's "network embedding output in the last
// step as xρ".
func (m *LSTM) EmbedSequence(tokens []string) mat.Vector {
	s := m.Start()
	for _, tok := range tokens {
		s.Feed(tok)
	}
	return s.Hidden()
}

// PredictNext is a convenience over Start/Feed/Probs: it returns the
// next-token distribution after the given prefix, sorted descending.
func (m *LSTM) PredictNext(prefix []string) []TokenProb {
	s := m.Start()
	for _, tok := range prefix {
		s.Feed(tok)
	}
	return topTokens(m.vocab, s.Probs())
}

// topTokens converts a distribution to a sorted TokenProb list, skipping
// PAD/BOS which are never valid continuations.
func topTokens(v *Vocab, probs mat.Vector) []TokenProb {
	out := make([]TokenProb, 0, len(probs))
	for id, p := range probs {
		tok := v.Token(id)
		if tok == PAD || tok == BOS {
			continue
		}
		out = append(out, TokenProb{Token: tok, Prob: p})
	}
	sortTokenProbs(out)
	return out
}

func sortTokenProbs(tp []TokenProb) {
	sort.Slice(tp, func(i, j int) bool {
		if tp[i].Prob != tp[j].Prob {
			return tp[i].Prob > tp[j].Prob
		}
		return tp[i].Token < tp[j].Token
	})
}
