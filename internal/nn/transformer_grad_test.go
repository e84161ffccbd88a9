package nn

import (
	"math"
	"testing"
)

// TestTransformerGradientCheck verifies the Transformer's analytic
// gradients against central finite differences for a sample of parameters
// in every tensor.
func TestTransformerGradientCheck(t *testing.T) {
	v := BuildVocab([][]string{{"a", "b", "c"}}, 1)
	m := NewTransformer(v, TransformerConfig{ModelDim: 4, AttnDim: 3, FFNDim: 5, MaxLen: 8, Seed: 2})
	ids := v.EncodeSentence([]string{"a", "b", "c"})

	loss := func() float64 {
		fw := m.forward(ids, true)
		var nll float64
		for i := 0; i+1 < len(fw.ids); i++ {
			p := fw.probs[i][fw.ids[i+1]]
			if p < 1e-12 {
				p = 1e-12
			}
			nll += -math.Log(p)
		}
		return nll
	}

	// Capture analytic gradients without stepping.
	m.accumulateGrads(ids)
	pairs := m.tensors
	grads := make([][]float64, len(pairs))
	for i, p := range pairs {
		grads[i] = append([]float64(nil), p.grads...)
		for j := range p.grads {
			p.grads[j] = 0
		}
	}

	const eps = 1e-5
	names := []string{"emb", "pos", "wq", "wk", "wv", "wao", "w1", "b1", "w2", "b2", "wout", "bout"}
	check := func(name string, params, g []float64, idx int) {
		t.Helper()
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
	for i, p := range pairs {
		check(names[i], p.params, grads[i], 0)
		if len(p.params) > 3 {
			check(names[i], p.params, grads[i], len(p.params)/2)
			check(names[i], p.params, grads[i], len(p.params)-1)
		}
	}
}
