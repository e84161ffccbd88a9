package nn

import (
	"math"
	"testing"

	"semjoin/internal/mat"
)

// toyCorpus builds a tiny deterministic language: sentences follow the
// rigid grammar "a X b Y" where X∈{x1,x2} selects Y (x1→y1, x2→y2), so a
// trained LM must use context beyond the previous token.
func toyCorpus(n int) [][]string {
	var corpus [][]string
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			corpus = append(corpus, []string{"a", "x1", "b", "y1"})
		} else {
			corpus = append(corpus, []string{"a", "x2", "b", "y2"})
		}
	}
	return corpus
}

func TestVocabBasics(t *testing.T) {
	v := NewVocab()
	if v.Size() != 4 {
		t.Fatalf("reserved size = %d", v.Size())
	}
	id := v.Add("hello")
	if v.Add("hello") != id {
		t.Fatal("Add should be idempotent")
	}
	if v.ID("hello") != id || v.Token(id) != "hello" {
		t.Fatal("lookup broken")
	}
	if v.ID("missing") != v.ID(UNK) {
		t.Fatal("unknown should map to UNK")
	}
	if !v.Has("hello") || v.Has("missing") {
		t.Fatal("Has broken")
	}
}

func TestBuildVocabOrderAndMinCount(t *testing.T) {
	corpus := [][]string{{"b", "a", "a"}, {"a", "c"}}
	v := BuildVocab(corpus, 1)
	// a (3) before b (1) and c (1); b before c lexicographically.
	if v.ID("a") > v.ID("b") || v.ID("b") > v.ID("c") {
		t.Fatal("frequency/lex ordering violated")
	}
	v2 := BuildVocab(corpus, 2)
	if v2.Has("b") || !v2.Has("a") {
		t.Fatal("minCount filtering broken")
	}
}

func TestEncodeSentence(t *testing.T) {
	v := BuildVocab([][]string{{"a"}}, 1)
	ids := v.EncodeSentence([]string{"a", "zzz"})
	if len(ids) != 4 || ids[0] != v.ID(BOS) || ids[3] != v.ID(EOS) || ids[2] != v.ID(UNK) {
		t.Fatalf("EncodeSentence = %v", ids)
	}
}

func TestLSTMTrainingReducesPerplexity(t *testing.T) {
	corpus := toyCorpus(40)
	v := BuildVocab(corpus, 1)
	m := NewLSTM(v, LSTMConfig{EmbedDim: 12, HiddenDim: 16, Seed: 3})
	before := m.Perplexity(corpus)
	m.Train(corpus, 30)
	after := m.Perplexity(corpus)
	if after >= before {
		t.Fatalf("perplexity did not improve: %.3f -> %.3f", before, after)
	}
	// Fully deterministic grammar should approach low perplexity.
	if after > 2.5 {
		t.Fatalf("perplexity too high after training: %.3f", after)
	}
}

func TestLSTMContextSensitivePrediction(t *testing.T) {
	corpus := toyCorpus(40)
	v := BuildVocab(corpus, 1)
	m := NewLSTM(v, LSTMConfig{EmbedDim: 12, HiddenDim: 16, Seed: 3})
	m.Train(corpus, 40)
	// After "a x1 b" the model must prefer y1; after "a x2 b", y2 —
	// requires remembering a token two steps back.
	p1 := m.PredictNext([]string{"a", "x1", "b"})
	p2 := m.PredictNext([]string{"a", "x2", "b"})
	if p1[0].Token != "y1" {
		t.Fatalf("after x1 predicted %q", p1[0].Token)
	}
	if p2[0].Token != "y2" {
		t.Fatalf("after x2 predicted %q", p2[0].Token)
	}
	// After y1 the sentence ends.
	p3 := m.PredictNext([]string{"a", "x1", "b", "y1"})
	if p3[0].Token != EOS {
		t.Fatalf("after full sentence predicted %q, want EOS", p3[0].Token)
	}
}

func TestLSTMStateCloneBranches(t *testing.T) {
	corpus := toyCorpus(20)
	v := BuildVocab(corpus, 1)
	m := NewLSTM(v, LSTMConfig{EmbedDim: 8, HiddenDim: 12, Seed: 5})
	m.Train(corpus, 10)
	s := m.Start()
	s.Feed("a")
	branch := s.Clone()
	s.Feed("x1")
	branch.Feed("x2")
	h1 := s.Hidden()
	h2 := branch.Hidden()
	if mat.Cosine(h1, h2) > 0.99999 {
		t.Fatal("branched states should diverge")
	}
	// Original state advanced independently of the clone.
	s2 := m.Start()
	s2.Feed("a")
	s2.Feed("x1")
	if mat.Cosine(h1, s2.Hidden()) < 0.99999 {
		t.Fatal("same token sequence should give same state")
	}
}

func TestLSTMEmbedSequenceDiscriminatesOrder(t *testing.T) {
	// §III-A: "the embedding xρ can discern different orders of edge
	// labels". Train on sequences where order matters and check the
	// embeddings differ.
	corpus := [][]string{}
	for i := 0; i < 30; i++ {
		corpus = append(corpus, []string{"p", "q", "r"})
		corpus = append(corpus, []string{"r", "q", "p"})
	}
	v := BuildVocab(corpus, 1)
	m := NewLSTM(v, LSTMConfig{EmbedDim: 8, HiddenDim: 12, Seed: 7})
	m.Train(corpus, 15)
	e1 := m.EmbedSequence([]string{"p", "q", "r"})
	e2 := m.EmbedSequence([]string{"r", "q", "p"})
	if mat.Cosine(e1, e2) > 0.999 {
		t.Fatal("order-reversed sequences should embed differently")
	}
	if len(e1) != m.EmbedDim() {
		t.Fatalf("embed dim = %d, want %d", len(e1), m.EmbedDim())
	}
}

func TestLSTMProbsSumToOne(t *testing.T) {
	v := BuildVocab(toyCorpus(4), 1)
	m := NewLSTM(v, LSTMConfig{EmbedDim: 8, HiddenDim: 8, Seed: 1})
	s := m.Start()
	s.Feed("a")
	p := s.Probs()
	var sum float64
	for _, x := range p {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum = %v", sum)
	}
}

func TestLSTMPerplexityEmptyCorpus(t *testing.T) {
	v := NewVocab()
	m := NewLSTM(v, LSTMConfig{EmbedDim: 4, HiddenDim: 4})
	if !math.IsInf(m.Perplexity(nil), 1) {
		t.Fatal("empty-corpus perplexity should be +Inf")
	}
}

func TestLSTMGradientCheck(t *testing.T) {
	// Numerical gradient check: compare the analytic gradient of one
	// weight against central finite differences of the sentence NLL.
	v := BuildVocab([][]string{{"a", "b"}}, 1)
	m := NewLSTM(v, LSTMConfig{EmbedDim: 3, HiddenDim: 4, Seed: 2})
	ids := v.EncodeSentence([]string{"a", "b"})

	loss := func() float64 { return m.newTrainer(1, len(ids)-1).forward(ids, 0) }

	// The analytic gradients, without an optimiser step: wo's, bo's,
	// wx's, wh's and b's as the fused passes sum them before they step.
	grads := m.gradsForSentence(ids)
	const eps = 1e-5
	check := func(name string, params []float64, g []float64, idx int) {
		orig := params[idx]
		params[idx] = orig + eps
		lp := loss()
		params[idx] = orig - eps
		lm := loss()
		params[idx] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-g[idx]) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("%s[%d]: analytic %.8f vs numeric %.8f", name, idx, g[idx], numeric)
		}
	}
	check("wx", m.wx.Data, grads.wx, 0)
	check("wx", m.wx.Data, grads.wx, 7)
	check("wh", m.wh.Data, grads.wh, 3)
	check("wo", m.wo.Data, grads.wo, 5)
	check("b", m.b, grads.b, 1)
	check("bo", m.bo, grads.bo, 2)
	check("emb", m.emb.Data, grads.emb, ids[0]*m.cfg.EmbedDim)

	// And one real step reduces the loss.
	before := loss()
	m.Train([][]string{{"a", "b"}}, 1)
	after := loss()
	if after >= before {
		t.Fatalf("one Adam step should reduce loss: %.6f -> %.6f", before, after)
	}
}

func TestTransformerTrainingReducesPerplexity(t *testing.T) {
	corpus := toyCorpus(30)
	v := BuildVocab(corpus, 1)
	m := NewTransformer(v, TransformerConfig{ModelDim: 12, AttnDim: 12, FFNDim: 24, Seed: 3})
	// Perplexity via forward pass.
	ppl := func() float64 {
		var nll float64
		var n int
		for _, sent := range corpus {
			ids := v.EncodeSentence(sent)
			fw := m.forward(ids, true)
			for t := 0; t+1 < len(fw.ids); t++ {
				p := fw.probs[t][fw.ids[t+1]]
				if p < 1e-12 {
					p = 1e-12
				}
				nll += -math.Log(p)
				n++
			}
		}
		return math.Exp(nll / float64(n))
	}
	before := ppl()
	m.Train(corpus, 30)
	after := ppl()
	if after >= before {
		t.Fatalf("transformer perplexity did not improve: %.3f -> %.3f", before, after)
	}
	if after > 3.5 {
		t.Fatalf("transformer perplexity too high: %.3f", after)
	}
}

func TestTransformerContextSensitive(t *testing.T) {
	corpus := toyCorpus(40)
	v := BuildVocab(corpus, 1)
	m := NewTransformer(v, TransformerConfig{ModelDim: 16, AttnDim: 16, FFNDim: 32, Seed: 4})
	m.Train(corpus, 60)
	s := m.Start()
	for _, tok := range []string{"a", "x1", "b"} {
		s.Feed(tok)
	}
	p := s.Probs()
	if v.Token(mat.ArgMax(p)) != "y1" {
		t.Fatalf("transformer after x1 predicted %q", v.Token(mat.ArgMax(p)))
	}
}

func TestTransformerStateClone(t *testing.T) {
	v := BuildVocab(toyCorpus(4), 1)
	m := NewTransformer(v, TransformerConfig{ModelDim: 8, AttnDim: 8, FFNDim: 16, Seed: 1})
	s := m.Start()
	s.Feed("a")
	c := s.Clone()
	c.Feed("x1")
	// Original unchanged: same hidden as a fresh a-only state.
	s2 := m.Start()
	s2.Feed("a")
	if mat.Cosine(s.Hidden(), s2.Hidden()) < 0.99999 {
		t.Fatal("clone mutated original state")
	}
}

func TestTransformerEmbedSequence(t *testing.T) {
	v := BuildVocab(toyCorpus(4), 1)
	m := NewTransformer(v, TransformerConfig{ModelDim: 8, AttnDim: 8, FFNDim: 16, Seed: 1})
	e := m.EmbedSequence([]string{"a", "x1"})
	if len(e) != m.EmbedDim() {
		t.Fatalf("embed dim = %d", len(e))
	}
	e2 := m.EmbedSequence([]string{"a", "x2"})
	if mat.Cosine(e, e2) > 0.999999 {
		t.Fatal("different sequences should embed differently")
	}
}

func TestTransformerLongSequenceTruncates(t *testing.T) {
	v := BuildVocab(toyCorpus(4), 1)
	m := NewTransformer(v, TransformerConfig{ModelDim: 8, AttnDim: 8, FFNDim: 16, MaxLen: 8, Seed: 1})
	long := make([]string, 50)
	for i := range long {
		long[i] = "a"
	}
	e := m.EmbedSequence(long) // must not panic
	if len(e) != 8 {
		t.Fatalf("embed dim = %d", len(e))
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise f(x) = (x-3)^2 with Adam.
	params := []float64{0}
	opt := NewAdam(1, 0.1)
	for i := 0; i < 500; i++ {
		g := 2 * (params[0] - 3)
		opt.Step(params, []float64{g})
	}
	if math.Abs(params[0]-3) > 0.05 {
		t.Fatalf("Adam did not converge: x = %v", params[0])
	}
}

// TestClipStepZero pins the fused optimiser pass against the three
// passes it replaces — clip every gradient to [-c, c], Step, zero — on
// tensors whose gradients cross the bounds, at several splits of their
// elements over workers, including splits that cut a tensor.
func TestClipStepZero(t *testing.T) {
	if clip(-10, 1) != -1 || clip(0.5, 1) != 0.5 || clip(10, 1) != 1 {
		t.Fatal("clip does not bound to [-c, c]")
	}
	const c = 5
	for _, procs := range []int{1, 2, 3, 8} {
		rng := mat.NewRNG(uint64(procs))
		var fused, ref []tensor
		for _, n := range []int{5000, 3, 9000} {
			p := mat.NewVector(n)
			rng.FillUniform(p, 1)
			fused = append(fused, tensor{params: p, grads: mat.NewVector(n), opt: NewAdam(n, 0.01)})
			ref = append(ref, tensor{params: p.Clone(), grads: mat.NewVector(n), opt: NewAdam(n, 0.01)})
		}
		for step := 0; step < 3; step++ {
			for k := range fused {
				rng.FillUniform(fused[k].grads, 8)
				g := ref[k].grads
				copy(g, fused[k].grads)
				for i, x := range g {
					if x > c {
						g[i] = c
					} else if x < -c {
						g[i] = -c
					}
				}
				ref[k].opt.Step(ref[k].params, g)
			}
			clipStepZero(procs, c, fused)
			for k := range fused {
				for i, x := range fused[k].params {
					if x != ref[k].params[i] || fused[k].grads[i] != 0 {
						t.Fatalf("procs %d step %d tensor %d [%d]: param %v, want %v; grad %v, want 0",
							procs, step, k, i, x, ref[k].params[i], fused[k].grads[i])
					}
				}
			}
		}
	}
}

// capturedGrads snapshots the LSTM gradient buffers for the gradient test.
type capturedGrads struct {
	emb, wx, wh, wo, b, bo []float64
}

// gradsForSentence runs one backward pass and returns the gradients,
// leaving the model unchanged. Training stores only the embedding's
// gradient; the other rows are those the fused passes step with.
func (m *LSTM) gradsForSentence(ids []int) capturedGrads {
	T := len(ids) - 1
	tr := m.newTrainer(1, T)
	tr.forward(ids, 0)
	tr.outputDeltas(ids)
	tr.backward(ids)
	rows := func(l dense) (w, b []float64) {
		w = make([]float64, len(l.w.Data))
		b = make([]float64, l.w.Rows)
		for i := range b {
			b[i] = sumRow(w[i*l.w.Cols:(i+1)*l.w.Cols], i, T, l.coef, l.in)
		}
		return w, b
	}
	g := capturedGrads{emb: tr.gEmb.Data}
	g.wo, g.bo = rows(tr.output.ls[0])
	g.wx, g.b = rows(tr.recurrent.ls[0])
	g.wh, _ = rows(tr.recurrent.ls[1])
	return g
}

// TestScoresOrderAsProbs pins what path selection relies on: ranking
// candidate tokens by Scores — and comparing the best of them with EOS
// — decides exactly as ranking by the full distribution with p = 0 for
// tokens outside the vocabulary, for both sequence models, over random
// prefixes and candidate sets that include out-of-vocabulary tokens.
func TestScoresOrderAsProbs(t *testing.T) {
	rng := mat.NewRNG(11)
	words := make([]string, 40)
	for i := range words {
		words[i] = "w" + string(rune('a'+i/26)) + string(rune('a'+i%26))
	}
	var corpus [][]string
	for i := 0; i < 120; i++ {
		sent := make([]string, 2+rng.Intn(6))
		for j := range sent {
			sent[j] = words[rng.Intn(len(words))]
		}
		corpus = append(corpus, sent)
	}
	vocab := BuildVocab(corpus, 1)
	lstm := NewLSTM(vocab, LSTMConfig{Seed: 5})
	lstm.Train(corpus, 2)
	tf := NewTransformer(vocab, TransformerConfig{Seed: 5})
	tf.Train(corpus, 2)
	pool := append(append([]string(nil), words...), "oov-1", "oov-2", UNK)

	sign := func(x float64) int {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}
	for name, m := range map[string]SequenceModel{"lstm": lstm, "transformer": tf} {
		for trial := 0; trial < 200; trial++ {
			s := m.Start()
			for n := rng.Intn(7); n > 0; n-- {
				s.Feed(pool[rng.Intn(len(pool))])
			}
			cands := make([]string, 1+rng.Intn(8))
			for i := range cands {
				cands[i] = pool[rng.Intn(len(pool))]
			}
			probs := s.Probs()
			p := make([]float64, len(cands))
			for i, tok := range cands {
				if vocab.Has(tok) {
					p[i] = probs[vocab.ID(tok)]
				}
			}
			scores := s.Scores(nil, append(cands, EOS))
			if len(scores) != len(cands)+1 {
				t.Fatalf("%s: %d scores for %d tokens", name, len(scores), len(cands)+1)
			}
			eos := scores[len(cands)]
			for i := range cands {
				if vocab.Has(cands[i]) == math.IsInf(scores[i], -1) {
					t.Fatalf("%s: token %q scored %v", name, cands[i], scores[i])
				}
				if (probs[vocab.ID(EOS)] > p[i]) != (eos > scores[i]) {
					t.Fatalf("%s trial %d: EOS stop differs for %q: p(eos)=%g p=%g, scores %g vs %g",
						name, trial, cands[i], probs[vocab.ID(EOS)], p[i], eos, scores[i])
				}
				for j := range cands {
					if sign(p[i]-p[j]) != sign(scores[i]-scores[j]) {
						t.Fatalf("%s trial %d: %q vs %q: probs %g, %g but scores %g, %g",
							name, trial, cands[i], cands[j], p[i], p[j], scores[i], scores[j])
					}
				}
			}
		}
	}
}

// TestLSTMFeedMatchesForwardStep pins that the allocation-free decoding
// step is the training recurrence bit for bit, through clones.
func TestLSTMFeedMatchesForwardStep(t *testing.T) {
	corpus := toyCorpus(20)
	m := NewLSTM(BuildVocab(corpus, 1), LSTMConfig{Seed: 9})
	m.Train(corpus, 1)
	toks := []string{BOS, "a", "x1", "never-seen", "b", "y1", EOS}
	ids := make([]int, len(toks))
	for i, tok := range toks {
		ids[i] = m.vocab.ID(tok)
	}
	tr := m.newTrainer(1, len(ids))
	tr.recurrence(ids)
	s := m.Start()
	for i, tok := range toks[1:] {
		if i%2 == 1 {
			s = s.Clone()
		}
		s.Feed(tok)
		got := s.(*lstmState)
		wantH, wantC := tr.hs.Row(i+2), tr.cs.Row(i+2)
		for j := range wantH {
			if got.h[j] != wantH[j] || got.c[j] != wantC[j] {
				t.Fatalf("after %q: state differs at %d: h %v vs %v, c %v vs %v", tok, j, got.h[j], wantH[j], got.c[j], wantC[j])
			}
		}
	}
}
