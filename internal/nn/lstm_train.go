package nn

import (
	"math"
	"runtime"
	"sync"

	"semjoin/internal/mat"
)

// lstmTrainer holds the scratch of one Train or Perplexity call, sized
// for its longest sentence and reused across sentences.
//
// A sentence of ids has T = len(ids)-1 steps: step t reads ids[t] and
// predicts ids[t+1]. The recurrence never reads the output layer, so the
// trainer runs all T steps of it first and then the output layer for all
// of them at once: each sweep over wo's V rows serves every step. Every
// value is still the sum a step-at-a-time forward and BPTT would form,
// with the same terms in the same order, so the trained weights depend
// neither on this batching nor on the number of workers (the
// fingerprint tests pin them).
type lstmTrainer struct {
	m     *LSTM
	procs int // workers; they split outputs, never a sum

	xs                *mat.Matrix // T×d: step t's input embedding
	zs                *mat.Matrix // T×4h: gate pre-activations
	hs, cs            *mat.Matrix // (T+1)×h: row 0 the zero initial state, row t+1 step t's
	ht                *mat.Matrix // T×h view of hs: row t is h_t
	ig, fg, gg, og    *mat.Matrix // T×h post-activation gates
	tanhC             *mat.Matrix // T×h tanh(c)
	probs             *mat.Matrix // T×V: logits, then softmax, then dlogits
	dh                *mat.Matrix // T×h: woᵀ·dlogits_t, then the step's full dh
	dz                *mat.Matrix // T×4h: gate pre-activation gradients
	tmp               mat.Vector  // 4h
	dhNext, dcNext    mat.Vector  // h
	dx                mat.Vector  // d
	gEmb              *mat.Matrix // V×d: BPTT adds into the sentence's token rows
	emb               []tensor    // the embedding with gEmb
	output, recurrent denseStep   // wo with bo; wx with b, and wh
}

// dense is a weight matrix whose gradient is never stored: row i's is
// Σ_t coef_t[i]·in_t and its bias's, if it has one, Σ_t coef_t[i], where
// coef_t and in_t are row t of coef and in (see sumRow).
type dense struct {
	w, coef, in *mat.Matrix
	opt         *Adam
	bias        mat.Vector
	optBias     *Adam
	b1c, b2c    float64 // the current step's bias corrections
	bb1c, bb2c  float64 // the bias's
}

// denseStep is a set of dense layers stepped in one pass, with one
// gradient row of scratch per worker.
type denseStep struct {
	ls      []dense
	scratch *mat.Matrix
}

// rowGrain is the fewest weight rows a worker takes, so that its share
// of a sentence's work (T dot products or gradient sums per row) outweighs
// starting it.
const rowGrain = 64

func (m *LSTM) newTrainer(procs, maxT int) *lstmTrainer {
	V, d, h := m.vocab.Size(), m.cfg.EmbedDim, m.cfg.HiddenDim
	tr := &lstmTrainer{
		m: m, procs: procs,
		xs: mat.NewMatrix(maxT, d),
		hs: mat.NewMatrix(maxT+1, h), cs: mat.NewMatrix(maxT+1, h),
		ig: mat.NewMatrix(maxT, h), fg: mat.NewMatrix(maxT, h),
		gg: mat.NewMatrix(maxT, h), og: mat.NewMatrix(maxT, h),
		tanhC: mat.NewMatrix(maxT, h),
		probs: mat.NewMatrix(maxT, V),
		dh:    mat.NewMatrix(maxT, h),
		dz:    mat.NewMatrix(maxT, 4*h),
		zs:    mat.NewMatrix(maxT, 4*h), tmp: mat.NewVector(4 * h),
		dhNext: mat.NewVector(h), dcNext: mat.NewVector(h),
		dx:   mat.NewVector(d),
		gEmb: mat.NewMatrix(V, d),
	}
	tr.emb = []tensor{{params: m.emb.Data, grads: tr.gEmb.Data, opt: m.optEmb}}
	// Step t's hidden state h_t is row t+1 of hs; its hPrev is row t.
	tr.ht = &mat.Matrix{Rows: maxT, Cols: h, Data: tr.hs.Data[h:]}
	tr.output = denseStep{
		ls:      []dense{{w: m.wo, coef: tr.probs, in: tr.ht, opt: m.optWo, bias: m.bo, optBias: m.optBo}},
		scratch: mat.NewMatrix(procs, h),
	}
	tr.recurrent = denseStep{
		ls: []dense{
			{w: m.wx, coef: tr.dz, in: tr.xs, opt: m.optWx, bias: m.b, optBias: m.optB},
			{w: m.wh, coef: tr.dz, in: tr.hs, opt: m.optWh},
		},
		scratch: mat.NewMatrix(procs, max(d, h)),
	}
	return tr
}

// Train fits the model on the corpus for the given number of epochs and
// returns the training perplexity of the final epoch. It uses
// runtime.GOMAXPROCS(0) workers; the trained weights do not depend on
// their number.
func (m *LSTM) Train(corpus [][]string, epochs int) float64 {
	rng := mat.NewRNG(m.cfg.Seed + 77)
	encoded, maxT := m.encode(corpus)
	tr := m.newTrainer(runtime.GOMAXPROCS(0), maxT)
	var ppl float64
	for e := 0; e < epochs; e++ {
		var nll float64
		var n int
		perm := rng.Perm(len(encoded))
		for _, i := range perm {
			dn, dc := tr.step(encoded[i])
			nll += dn
			n += dc
		}
		if n > 0 {
			ppl = math.Exp(nll / float64(n))
		}
	}
	return ppl
}

// Perplexity evaluates the model on a corpus without training.
func (m *LSTM) Perplexity(corpus [][]string) float64 {
	encoded, maxT := m.encode(corpus)
	tr := m.newTrainer(1, maxT)
	var nll float64
	var n int
	for _, ids := range encoded {
		if len(ids) < 2 {
			continue
		}
		nll = tr.forward(ids, nll)
		n += len(ids) - 1
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Exp(nll / float64(n))
}

// encode encodes every sentence and returns the most steps any has.
func (m *LSTM) encode(corpus [][]string) (encoded [][]int, maxT int) {
	encoded = make([][]int, len(corpus))
	for i, sent := range corpus {
		encoded[i] = m.vocab.EncodeSentence(sent)
		maxT = max(maxT, len(encoded[i])-1)
	}
	return encoded, maxT
}

// step trains on one encoded sentence: forward, BPTT and one clipped
// Adam step of every parameter. It returns the summed negative
// log-likelihood and the number of predicted tokens.
func (tr *lstmTrainer) step(ids []int) (nll float64, n int) {
	if len(ids) < 2 {
		return 0, 0
	}
	T := len(ids) - 1
	nll = tr.forward(ids, 0)
	tr.outputDeltas(ids)

	// The output layer's step writes only wo, bo and their moments and
	// reads only h_t and dlogits_t: nothing BPTT or the other steps touch.
	if tr.procs == 1 {
		tr.stepDense(T, &tr.output)
	} else {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.stepDense(T, &tr.output)
		}()
		defer wg.Wait()
	}
	tr.backward(ids)
	tr.stepDense(T, &tr.recurrent)
	clipStepZero(tr.procs, tr.m.cfg.Clip, tr.emb)
	return nll, T
}

// forward runs the sentence's T steps, leaving step t's next-token
// distribution in probs.Row(t), and returns nll plus each step's
// -log p(target), added in step order.
func (tr *lstmTrainer) forward(ids []int, nll float64) float64 {
	T := len(ids) - 1
	tr.recurrence(ids[:T])
	split(tr.procs, tr.m.vocab.Size(), rowGrain, func(_, lo, hi int) { dotRows(tr.probs, tr.m.wo, tr.ht, tr.m.bo, T, lo, hi) })
	split(tr.procs, T, 1, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			p := tr.probs.Row(t)
			mat.Softmax(p, p)
		}
	})
	for t := 0; t < T; t++ {
		p := tr.probs.Row(t)[ids[t+1]]
		if p < 1e-12 {
			p = 1e-12
		}
		nll += -math.Log(p)
	}
	return nll
}

// recurrence runs the LSTM over the input ids from the zero state,
// caching every step's input, gates, cell and hidden state. The input
// projections wx·x_t do not depend on the recurrence and are computed
// for every step up front.
func (tr *lstmTrainer) recurrence(ids []int) {
	m, T, h := tr.m, len(ids), tr.m.cfg.HiddenDim
	for t, id := range ids {
		copy(tr.xs.Row(t), m.emb.Row(id))
	}
	split(tr.procs, 4*h, rowGrain, func(_, lo, hi int) { dotRows(tr.zs, m.wx, tr.xs, nil, T, lo, hi) })
	for t := range ids {
		// z = Wx·x + Wh·hPrev + b, added in preact's order.
		z := tr.zs.Row(t)
		matVec(tr.tmp, m.wh, tr.hs.Row(t))
		for j := range z {
			z[j] = z[j] + tr.tmp[j] + m.b[j]
		}
		cPrev, c, hv := tr.cs.Row(t), tr.cs.Row(t+1), tr.hs.Row(t+1)
		i, f, g, o, tc := tr.ig.Row(t), tr.fg.Row(t), tr.gg.Row(t), tr.og.Row(t), tr.tanhC.Row(t)
		for j := 0; j < h; j++ {
			i[j] = mat.Sigmoid(z[j])
			f[j] = mat.Sigmoid(z[h+j])
			g[j] = mat.Tanh(z[2*h+j])
			o[j] = mat.Sigmoid(z[3*h+j])
			c[j] = f[j]*cPrev[j] + i[j]*g[j]
			tc[j] = mat.Tanh(c[j])
			hv[j] = o[j] * tc[j]
		}
	}
}

// dotRows sets out[t][i] = w.Row(i)·in.Row(t), plus bias[i] when bias
// is not nil, for rows [lo, hi) of w and every step t < T: MulVec's dot
// product over j ascending from 0, then Add's bias. Blocks of two rows
// and four steps share their loads.
func dotRows(out, w, in *mat.Matrix, bias mat.Vector, T, lo, hi int) {
	O, n := out.Data, out.Cols
	add := func(o []float64, i int, s float64) {
		if bias != nil {
			s += bias[i]
		}
		o[i] = s
	}
	i := lo
	for ; i+2 <= hi; i += 2 {
		r0 := w.Row(i)
		r1 := w.Row(i + 1)[:len(r0)]
		t := 0
		for ; t+4 <= T; t += 4 {
			v0, v1, v2, v3 := in.Row(t)[:len(r0)], in.Row(t + 1)[:len(r0)], in.Row(t + 2)[:len(r0)], in.Row(t + 3)[:len(r0)]
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for j, x0 := range r0 {
				x1 := r1[j]
				y0, y1, y2, y3 := v0[j], v1[j], v2[j], v3[j]
				s00 += x0 * y0
				s01 += x1 * y0
				s10 += x0 * y1
				s11 += x1 * y1
				s20 += x0 * y2
				s21 += x1 * y2
				s30 += x0 * y3
				s31 += x1 * y3
			}
			o := O[t*n:]
			add(o, i, s00)
			add(o, i+1, s01)
			add(o[n:], i, s10)
			add(o[n:], i+1, s11)
			add(o[2*n:], i, s20)
			add(o[2*n:], i+1, s21)
			add(o[3*n:], i, s30)
			add(o[3*n:], i+1, s31)
		}
		for ; t < T; t++ {
			add(O[t*n:], i, mat.Dot(r0, in.Row(t)))
			add(O[t*n:], i+1, mat.Dot(r1, in.Row(t)))
		}
	}
	for ; i < hi; i++ {
		for t := 0; t < T; t++ {
			add(O[t*n:], i, mat.Dot(w.Row(i), in.Row(t)))
		}
	}
}

// matVec sets dst = w·v as MulVec does, four rows' dot products at a
// time.
func matVec(dst mat.Vector, w *mat.Matrix, v mat.Vector) {
	i := 0
	for ; i+4 <= w.Rows; i += 4 {
		r0 := w.Row(i)
		r1, r2, r3, v := w.Row(i + 1)[:len(r0)], w.Row(i + 2)[:len(r0)], w.Row(i + 3)[:len(r0)], v[:len(r0)]
		var s0, s1, s2, s3 float64
		for j, x := range r0 {
			y := v[j]
			s0 += x * y
			s1 += r1[j] * y
			s2 += r2[j] * y
			s3 += r3[j] * y
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < w.Rows; i++ {
		dst[i] = mat.Dot(w.Row(i), v)
	}
}

// outputDeltas turns step t's distribution into dlogits_t = probs_t -
// onehot(ids[t+1]) and sets dh.Row(t) = woᵀ·dlogits_t, steps split over
// the workers.
func (tr *lstmTrainer) outputDeltas(ids []int) {
	T := len(ids) - 1
	for t := 0; t < T; t++ {
		tr.probs.Row(t)[ids[t+1]] -= 1
	}
	split(tr.procs, T, 1, func(_, lo, hi int) { tr.outputDH(lo, hi) })
}

// outputDH sets dh.Row(t) = woᵀ·dlogits_t for steps [lo, hi): over rows
// in ascending order, skipping zero coefficients, as MulVecT does.
// Blocks of two rows and four steps share their loads and stores.
func (tr *lstmTrainer) outputDH(lo, hi int) {
	wo, P, D := tr.m.wo, tr.probs, tr.dh
	V := P.Cols
	for t := lo; t < hi; t++ {
		D.Row(t).Zero()
	}
	i := 0
	for ; i+2 <= V; i += 2 {
		r0 := wo.Row(i)
		r1 := wo.Row(i + 1)[:len(r0)]
		t := lo
		for ; t+4 <= hi; t += 4 {
			a := P.Data[t*V+i:]
			a00, a01, a10, a11 := a[0], a[1], a[V], a[V+1]
			a20, a21, a30, a31 := a[2*V], a[2*V+1], a[3*V], a[3*V+1]
			if a00 == 0 || a01 == 0 || a10 == 0 || a11 == 0 || a20 == 0 || a21 == 0 || a30 == 0 || a31 == 0 {
				break
			}
			d0, d1, d2, d3 := D.Row(t)[:len(r0)], D.Row(t + 1)[:len(r0)], D.Row(t + 2)[:len(r0)], D.Row(t + 3)[:len(r0)]
			for j, x0 := range r0 {
				x1 := r1[j]
				d0[j] = d0[j] + a00*x0 + a01*x1
				d1[j] = d1[j] + a10*x0 + a11*x1
				d2[j] = d2[j] + a20*x0 + a21*x1
				d3[j] = d3[j] + a30*x0 + a31*x1
			}
		}
		for ; t < hi; t++ {
			axpy(D.Row(t), P.Data[t*V+i], r0)
			axpy(D.Row(t), P.Data[t*V+i+1], r1)
		}
	}
	for ; i < V; i++ {
		for t := lo; t < hi; t++ {
			axpy(D.Row(t), P.Data[t*V+i], wo.Row(i))
		}
	}
}

// axpy adds a·x to d unless a is zero.
func axpy(d mat.Vector, a float64, x mat.Vector) {
	if a == 0 {
		return
	}
	d = d[:len(x)]
	for j, xj := range x {
		d[j] += a * xj
	}
}

// sumRow sets g[j] = Σ_t coef[t][i]·in[t][j] and returns Σ_t coef[t][i],
// both summed from t = T-1 down to 0; a zero coef[t][i] adds nothing to
// g. That is the order, and the skip, of AddOuter and Add accumulating a
// gradient one BPTT step at a time into a zeroed buffer. Eight columns
// at a time are summed in registers.
func sumRow(g mat.Vector, i, T int, coef, in *mat.Matrix) (sum float64) {
	C, X := coef.Data, in.Data
	cs, xs, n := coef.Cols, in.Cols, len(g)
	for t := T - 1; t >= 0; t-- {
		sum += C[t*cs+i]
	}
	j := 0
	for ; j+8 <= n; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for t := T - 1; t >= 0; t-- {
			c := C[t*cs+i]
			if c == 0 {
				continue
			}
			x := X[t*xs+j : t*xs+j+8]
			s0 += c * x[0]
			s1 += c * x[1]
			s2 += c * x[2]
			s3 += c * x[3]
			s4 += c * x[4]
			s5 += c * x[5]
			s6 += c * x[6]
			s7 += c * x[7]
		}
		g[j], g[j+1], g[j+2], g[j+3], g[j+4], g[j+5], g[j+6], g[j+7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; j < n; j++ {
		var s float64
		for t := T - 1; t >= 0; t-- {
			if c := C[t*cs+i]; c != 0 {
				s += c * X[t*xs+j]
			}
		}
		g[j] = s
	}
	return sum
}

// stepDense steps the layers of ds: each row's gradient is summed by
// sumRow, clipped, applied with Adam together with its bias element, and
// dropped. The rows of all layers, taken end to end, are split over the
// workers.
func (tr *lstmTrainer) stepDense(T int, ds *denseStep) {
	c := tr.m.cfg.Clip
	rows := 0
	for k := range ds.ls {
		l := &ds.ls[k]
		l.b1c, l.b2c = l.opt.tick()
		if l.bias != nil {
			l.bb1c, l.bb2c = l.optBias.tick()
		}
		rows += l.w.Rows
	}
	split(tr.procs, rows, rowGrain, func(w, lo, hi int) {
		off := 0
		for _, l := range ds.ls {
			g := ds.scratch.Row(w)[:l.w.Cols]
			for i := max(lo, off) - off; i < min(hi, off+l.w.Rows)-off; i++ {
				gb := sumRow(g, i, T, l.coef, l.in)
				if l.bias != nil {
					l.optBias.stepRange(l.bias[i:i+1], []float64{gb}, i, c, l.bb1c, l.bb2c)
				}
				l.opt.stepRange(l.w.Row(i), g, i*l.w.Cols, c, l.b1c, l.b2c)
			}
			off += l.w.Rows
		}
	})
}

// backward runs BPTT through the recurrence from the last step down,
// given dh.Row(t) = woᵀ·dlogits_t. It leaves each step's gate gradients
// in dz, from which stepDense sums wx's, wh's and b's, and adds the
// embedding's into gEmb.
func (tr *lstmTrainer) backward(ids []int) {
	m := tr.m
	h := m.cfg.HiddenDim
	dhNext, dcNext := tr.dhNext, tr.dcNext
	dhNext.Zero()
	dcNext.Zero()
	for t := len(ids) - 2; t >= 0; t-- {
		dh, dz := tr.dh.Row(t), tr.dz.Row(t)
		dh.Add(dhNext)
		i, f, g, o, tc := tr.ig.Row(t), tr.fg.Row(t), tr.gg.Row(t), tr.og.Row(t), tr.tanhC.Row(t)
		cPrev := tr.cs.Row(t)
		for j := 0; j < h; j++ {
			do := dh[j] * tc[j]
			dcj := dcNext[j] + dh[j]*o[j]*(1-tc[j]*tc[j])
			di := dcj * g[j]
			dg := dcj * i[j]
			df := dcj * cPrev[j]
			dcNext[j] = dcj * f[j]
			dz[j] = di * i[j] * (1 - i[j])
			dz[h+j] = df * f[j] * (1 - f[j])
			dz[2*h+j] = dg * (1 - g[j]*g[j])
			dz[3*h+j] = do * o[j] * (1 - o[j])
		}
		m.wx.MulVecT(tr.dx, dz)
		tr.gEmb.Row(ids[t]).Add(tr.dx)
		m.wh.MulVecT(dhNext, dz)
	}
}
