package nn

import (
	"math"
	"runtime"

	"semjoin/internal/mat"
)

// TransformerConfig parameterises NewTransformer. Zero fields take
// defaults.
type TransformerConfig struct {
	ModelDim int     // token/positional embedding size (default 32)
	AttnDim  int     // attention head size (default 32)
	FFNDim   int     // feed-forward inner size (default 64)
	MaxLen   int     // maximum sequence length (default 64)
	LR       float64 // Adam learning rate (default 0.002)
	Clip     float64 // gradient clip (default 5)
	Seed     uint64  // init seed (default 1)
}

func (c TransformerConfig) withDefaults() TransformerConfig {
	if c.ModelDim == 0 {
		c.ModelDim = 32
	}
	if c.AttnDim == 0 {
		c.AttnDim = 32
	}
	if c.FFNDim == 0 {
		c.FFNDim = 64
	}
	if c.MaxLen == 0 {
		c.MaxLen = 64
	}
	if c.LR == 0 {
		c.LR = 0.002
	}
	if c.Clip == 0 {
		c.Clip = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Transformer is a single-layer, single-head causal Transformer language
// model. It stands in for the BERT-based RExtBertSeq / RExtBertEmb
// baselines of §V Exp-2(b): per-embedding compute is higher than the LSTM
// while accuracy on small label vocabularies is comparable, reproducing
// the trade-off the paper reports.
type Transformer struct {
	vocab *Vocab
	cfg   TransformerConfig

	emb  *mat.Matrix // V×d token embeddings
	pos  *mat.Matrix // MaxLen×d positional embeddings
	wq   *mat.Matrix // a×d
	wk   *mat.Matrix // a×d
	wv   *mat.Matrix // a×d
	wao  *mat.Matrix // d×a attention output projection
	w1   *mat.Matrix // f×d FFN in
	b1   mat.Vector  // f
	w2   *mat.Matrix // d×f FFN out
	b2   mat.Vector  // d
	wout *mat.Matrix // V×d LM head
	bout mat.Vector  // V

	gEmb, gPos, gWq, gWk, gWv, gWao, gW1, gW2, gWout *mat.Matrix
	gB1, gB2, gBout                                  mat.Vector

	tensors []tensor // every parameter with its gradient and optimiser
}

// NewTransformer builds an untrained model over vocab.
func NewTransformer(vocab *Vocab, cfg TransformerConfig) *Transformer {
	cfg = cfg.withDefaults()
	V, d, a, f := vocab.Size(), cfg.ModelDim, cfg.AttnDim, cfg.FFNDim
	m := &Transformer{
		vocab: vocab, cfg: cfg,
		emb: mat.NewMatrix(V, d), pos: mat.NewMatrix(cfg.MaxLen, d),
		wq: mat.NewMatrix(a, d), wk: mat.NewMatrix(a, d), wv: mat.NewMatrix(a, d),
		wao: mat.NewMatrix(d, a),
		w1:  mat.NewMatrix(f, d), b1: mat.NewVector(f),
		w2: mat.NewMatrix(d, f), b2: mat.NewVector(d),
		wout: mat.NewMatrix(V, d), bout: mat.NewVector(V),

		gEmb: mat.NewMatrix(V, d), gPos: mat.NewMatrix(cfg.MaxLen, d),
		gWq: mat.NewMatrix(a, d), gWk: mat.NewMatrix(a, d), gWv: mat.NewMatrix(a, d),
		gWao: mat.NewMatrix(d, a),
		gW1:  mat.NewMatrix(f, d), gB1: mat.NewVector(f),
		gW2: mat.NewMatrix(d, f), gB2: mat.NewVector(d),
		gWout: mat.NewMatrix(V, d), gBout: mat.NewVector(V),
	}
	rng := mat.NewRNG(cfg.Seed)
	for _, p := range []*mat.Matrix{m.emb, m.pos, m.wq, m.wk, m.wv, m.wao, m.w1, m.w2, m.wout} {
		rng.FillUniform(mat.Vector(p.Data), math.Sqrt(1.0/float64(p.Cols)))
	}
	for _, p := range [][2][]float64{
		{m.emb.Data, m.gEmb.Data}, {m.pos.Data, m.gPos.Data},
		{m.wq.Data, m.gWq.Data}, {m.wk.Data, m.gWk.Data}, {m.wv.Data, m.gWv.Data},
		{m.wao.Data, m.gWao.Data},
		{m.w1.Data, m.gW1.Data}, {m.b1, m.gB1},
		{m.w2.Data, m.gW2.Data}, {m.b2, m.gB2},
		{m.wout.Data, m.gWout.Data}, {m.bout, m.gBout},
	} {
		m.tensors = append(m.tensors, tensor{params: p[0], grads: p[1], opt: NewAdam(len(p[0]), cfg.LR)})
	}
	return m
}

// Vocab returns the model vocabulary.
func (m *Transformer) Vocab() *Vocab { return m.vocab }

// EmbedDim returns the model dimension.
func (m *Transformer) EmbedDim() int { return m.cfg.ModelDim }

// tfwd holds the forward activations of one sentence.
type tfwd struct {
	ids   []int
	x     []mat.Vector // input embeddings (token+pos)
	q     []mat.Vector
	k     []mat.Vector
	v     []mat.Vector
	alpha []mat.Vector // attention weights per position (length t+1)
	attn  []mat.Vector // attention-weighted values
	r     []mat.Vector // residual after attention
	pre1  []mat.Vector // FFN pre-activation
	f1    []mat.Vector // FFN hidden (post-ReLU)
	out   []mat.Vector // final representation per position
	probs []mat.Vector // softmax over vocab (only when withOutput)
}

// forward runs the model over ids (truncated to MaxLen).
func (m *Transformer) forward(ids []int, withOutput bool) *tfwd {
	if len(ids) > m.cfg.MaxLen {
		ids = ids[len(ids)-m.cfg.MaxLen:]
	}
	T := len(ids)
	d, a, fdim := m.cfg.ModelDim, m.cfg.AttnDim, m.cfg.FFNDim
	fw := &tfwd{ids: ids}
	scale := 1 / math.Sqrt(float64(a))
	for t := 0; t < T; t++ {
		x := m.emb.Row(ids[t]).Clone()
		x.Add(m.pos.Row(t))
		fw.x = append(fw.x, x)
		fw.q = append(fw.q, m.wq.MulVec(mat.NewVector(a), x))
		fw.k = append(fw.k, m.wk.MulVec(mat.NewVector(a), x))
		fw.v = append(fw.v, m.wv.MulVec(mat.NewVector(a), x))
		// Causal attention over positions 0..t.
		scores := mat.NewVector(t + 1)
		for u := 0; u <= t; u++ {
			scores[u] = mat.Dot(fw.q[t], fw.k[u]) * scale
		}
		alpha := mat.Softmax(scores, scores)
		fw.alpha = append(fw.alpha, alpha)
		attn := mat.NewVector(a)
		for u := 0; u <= t; u++ {
			attn.AddScaled(alpha[u], fw.v[u])
		}
		fw.attn = append(fw.attn, attn)
		r := m.wao.MulVec(mat.NewVector(d), attn)
		r.Add(x)
		fw.r = append(fw.r, r)
		pre1 := m.w1.MulVec(mat.NewVector(fdim), r)
		pre1.Add(m.b1)
		f1 := pre1.Clone()
		for i, z := range f1 {
			if z < 0 {
				f1[i] = 0
			}
		}
		fw.pre1 = append(fw.pre1, pre1)
		fw.f1 = append(fw.f1, f1)
		out := m.w2.MulVec(mat.NewVector(d), f1)
		out.Add(m.b2)
		out.Add(r)
		fw.out = append(fw.out, out)
		if withOutput {
			logits := m.wout.MulVec(mat.NewVector(m.vocab.Size()), out)
			logits.Add(m.bout)
			fw.probs = append(fw.probs, mat.Softmax(logits, logits))
		}
	}
	return fw
}

// accumulateGrads runs the forward pass and full backward pass for one
// sentence, adding into the gradient buffers without stepping.
func (m *Transformer) accumulateGrads(ids []int) (nll float64, n int) {
	if len(ids) < 2 {
		return 0, 0
	}
	fw := m.forward(ids, true)
	T := len(fw.ids)
	d, a := m.cfg.ModelDim, m.cfg.AttnDim
	scale := 1 / math.Sqrt(float64(a))

	dx := make([]mat.Vector, T)
	dq := make([]mat.Vector, T)
	dk := make([]mat.Vector, T)
	dv := make([]mat.Vector, T)
	dattn := make([]mat.Vector, T)
	for t := 0; t < T; t++ {
		dx[t] = mat.NewVector(d)
		dq[t] = mat.NewVector(a)
		dk[t] = mat.NewVector(a)
		dv[t] = mat.NewVector(a)
		dattn[t] = mat.NewVector(a)
	}

	// Output, FFN and residual backward per position (positions 0..T-2
	// predict the next token; the last position has no target).
	for t := 0; t+1 < T; t++ {
		target := fw.ids[t+1]
		p := fw.probs[t][target]
		if p < 1e-12 {
			p = 1e-12
		}
		nll += -math.Log(p)
		n++
		dlogits := fw.probs[t]
		dlogits[target] -= 1
		m.gWout.AddOuter(1, dlogits, fw.out[t])
		m.gBout.Add(dlogits)
		dout := m.wout.MulVecT(mat.NewVector(d), dlogits)

		// out = r + W2·relu(W1·r + b1) + b2
		dr := dout.Clone()
		df1 := m.w2.MulVecT(mat.NewVector(m.cfg.FFNDim), dout)
		m.gW2.AddOuter(1, dout, fw.f1[t])
		m.gB2.Add(dout)
		for i := range df1 {
			if fw.pre1[t][i] <= 0 {
				df1[i] = 0
			}
		}
		m.gW1.AddOuter(1, df1, fw.r[t])
		m.gB1.Add(df1)
		dr.Add(m.w1.MulVecT(mat.NewVector(d), df1))

		// r = x + Wao·attn
		dx[t].Add(dr)
		m.gWao.AddOuter(1, dr, fw.attn[t])
		dattn[t].Add(m.wao.MulVecT(mat.NewVector(a), dr))
	}

	// Attention backward.
	for t := 0; t+1 < T; t++ {
		alpha := fw.alpha[t]
		// dalpha_u = dattn·v_u ; dv_u += alpha_u * dattn
		dalpha := mat.NewVector(t + 1)
		for u := 0; u <= t; u++ {
			dalpha[u] = mat.Dot(dattn[t], fw.v[u])
			dv[u].AddScaled(alpha[u], dattn[t])
		}
		// softmax backward
		var dot float64
		for u := 0; u <= t; u++ {
			dot += alpha[u] * dalpha[u]
		}
		for u := 0; u <= t; u++ {
			ds := alpha[u] * (dalpha[u] - dot)
			dq[t].AddScaled(ds*scale, fw.k[u])
			dk[u].AddScaled(ds*scale, fw.q[t])
		}
	}

	// Projection and embedding backward.
	for t := 0; t < T; t++ {
		m.gWq.AddOuter(1, dq[t], fw.x[t])
		m.gWk.AddOuter(1, dk[t], fw.x[t])
		m.gWv.AddOuter(1, dv[t], fw.x[t])
		dx[t].Add(m.wq.MulVecT(mat.NewVector(d), dq[t]))
		dx[t].Add(m.wk.MulVecT(mat.NewVector(d), dk[t]))
		dx[t].Add(m.wv.MulVecT(mat.NewVector(d), dv[t]))
		m.gEmb.Row(fw.ids[t]).Add(dx[t])
		m.gPos.Row(t).Add(dx[t])
	}

	return nll, n
}

// Train fits the model and returns the final-epoch training perplexity.
// After each sentence every parameter takes one clipped Adam step, split
// over runtime.GOMAXPROCS(0) workers; the trained weights do not depend
// on their number.
func (m *Transformer) Train(corpus [][]string, epochs int) float64 {
	rng := mat.NewRNG(m.cfg.Seed + 77)
	encoded := make([][]int, len(corpus))
	for i, sent := range corpus {
		encoded[i] = m.vocab.EncodeSentence(sent)
	}
	procs := runtime.GOMAXPROCS(0)
	var ppl float64
	for e := 0; e < epochs; e++ {
		var nll float64
		var n int
		for _, i := range rng.Perm(len(encoded)) {
			dn, dc := m.accumulateGrads(encoded[i])
			if dc > 0 {
				clipStepZero(procs, m.cfg.Clip, m.tensors)
			}
			nll += dn
			n += dc
		}
		if n > 0 {
			ppl = math.Exp(nll / float64(n))
		}
	}
	return ppl
}

// tfState implements State by replaying the full prefix on each query
// (sequences in path selection are short, ≤ 2k+1 tokens).
type tfState struct {
	m   *Transformer
	ids []int
}

// Start returns a state positioned after BOS.
func (m *Transformer) Start() State {
	return &tfState{m: m, ids: []int{m.vocab.ID(BOS)}}
}

// Feed appends one token.
func (s *tfState) Feed(token string) { s.ids = append(s.ids, s.m.vocab.ID(token)) }

// Probs returns the next-token distribution.
func (s *tfState) Probs() mat.Vector {
	fw := s.m.forward(s.ids, true)
	return fw.probs[len(fw.probs)-1].Clone()
}

// Scores returns the LM-head logit of each token over the last
// position's representation.
func (s *tfState) Scores(dst []float64, tokens []string) []float64 {
	fw := s.m.forward(s.ids, false)
	return appendScores(dst, tokens, s.m.vocab, s.m.wout, s.m.bout, fw.out[len(fw.out)-1])
}

// Hidden returns the representation of the last position.
func (s *tfState) Hidden() mat.Vector {
	fw := s.m.forward(s.ids, false)
	return fw.out[len(fw.out)-1].Clone()
}

// Clone returns an independent copy.
func (s *tfState) Clone() State {
	return &tfState{m: s.m, ids: append([]int(nil), s.ids...)}
}

// EmbedSequence returns the final-position representation of tokens.
func (m *Transformer) EmbedSequence(tokens []string) mat.Vector {
	s := m.Start()
	for _, tok := range tokens {
		s.Feed(tok)
	}
	return s.(*tfState).Hidden()
}
