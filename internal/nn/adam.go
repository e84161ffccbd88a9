package nn

import (
	"math"
	"sync"
)

// Adam is the Adam optimiser state for one parameter tensor (flattened).
type Adam struct {
	lr, beta1, beta2, eps float64
	m, v                  []float64
	t                     int
}

// NewAdam returns an optimiser for a parameter vector of length n.
func NewAdam(n int, lr float64) *Adam {
	return &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8,
		m: make([]float64, n), v: make([]float64, n)}
}

// Step applies one Adam update to params given grads, then leaves grads
// untouched (the caller zeroes them).
func (a *Adam) Step(params, grads []float64) {
	b1c, b2c := a.tick()
	a.stepRange(params, grads, 0, math.Inf(1), b1c, b2c)
}

// tick advances the step count and returns the step's bias corrections
// 1-β₁ᵗ and 1-β₂ᵗ. Each element is then updated once with them, in any
// order and on any goroutine: elements never read one another.
func (a *Adam) tick() (b1c, b2c float64) {
	a.t++
	return 1 - math.Pow(a.beta1, float64(a.t)), 1 - math.Pow(a.beta2, float64(a.t))
}

// stepRange applies the Adam update to the parameters p, which sit at
// offset off of the optimised tensor, with gradients g clipped to
// [-c, c] and the bias corrections of tick.
func (a *Adam) stepRange(p, g []float64, off int, c, b1c, b2c float64) {
	m, v, g := a.m[off:off+len(p)], a.v[off:off+len(p)], g[:len(p)]
	beta1, beta2, lr, eps := a.beta1, a.beta2, a.lr, a.eps
	k1, k2 := 1-beta1, 1-beta2
	for i := range p {
		gi := clip(g[i], c)
		mi := beta1*m[i] + k1*gi
		vi := beta2*v[i] + k2*gi*gi
		m[i], v[i] = mi, vi
		p[i] -= lr * (mi / b1c) / (math.Sqrt(vi/b2c) + eps)
	}
}

// clip bounds g to [-c, c].
func clip(g, c float64) float64 {
	if g > c {
		return c
	} else if g < -c {
		return -c
	}
	return g
}

// tensor is one parameter tensor with its gradient buffer and optimiser.
type tensor struct {
	params, grads []float64
	opt           *Adam
	b1c, b2c      float64 // the current step's bias corrections
}

// clipStepZero clips every gradient of ts to [-c, c], applies one Adam
// step and zeroes the gradients, in a single pass over each element — the
// same arithmetic per element as clipping every tensor, then stepping it,
// then zeroing it. The elements of all tensors, taken end to end, are
// split over procs workers.
func clipStepZero(procs int, c float64, ts []tensor) {
	total := 0
	for k := range ts {
		ts[k].b1c, ts[k].b2c = ts[k].opt.tick()
		total += len(ts[k].params)
	}
	split(procs, total, 4096, func(_, lo, hi int) {
		off := 0
		for _, t := range ts {
			a, b := max(lo, off)-off, min(hi, off+len(t.params))-off
			if a < b {
				t.opt.stepRange(t.params[a:b], t.grads[a:b], a, c, t.b1c, t.b2c)
				clear(t.grads[a:b])
			}
			off += len(t.params)
		}
	})
}

// split runs f over [0, n) cut into at most procs contiguous ranges, each
// a multiple of grain long but the last, and returns when all are done.
// The first range runs on the calling goroutine; w numbers the ranges
// from 0. Ranges are disjoint, so f writes the outputs of its own range
// without synchronisation. f must not combine values across indices of
// different ranges: a result then never depends on how [0, n) was cut,
// and so not on procs.
func split(procs, n, grain int, f func(w, lo, hi int)) {
	chunks := (n + grain - 1) / grain
	if procs > chunks {
		procs = chunks
	}
	if procs <= 1 {
		if n > 0 {
			f(0, 0, n)
		}
		return
	}
	per := (chunks + procs - 1) / procs * grain
	var wg sync.WaitGroup
	for w := 1; w*per < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w, w*per, min((w+1)*per, n))
		}(w)
	}
	f(0, 0, per)
	wg.Wait()
}

// SetLR changes the learning rate.
func (a *Adam) SetLR(lr float64) { a.lr = lr }
