package semjoin

// Benchmarks, one per table and figure of the paper's evaluation (§V).
// They run at a reduced scale so `go test -bench=. -benchmem` terminates
// on a laptop; cmd/experiments regenerates the full paper-style outputs.
// Quality benchmarks attach the measured F-measure via b.ReportMetric
// (unit "F"), so shapes are visible straight from the bench output.

import (
	"fmt"
	"sync"
	"testing"

	"semjoin/internal/core"
	"semjoin/internal/dataset"
	"semjoin/internal/expr"
	"semjoin/internal/gsql"
	"semjoin/internal/nn"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

const (
	benchEntities = 40
	benchSeed     = 7
)

var (
	benchMu   sync.Mutex
	benchRuns = map[string]*expr.Run{}
	benchEnvs = map[string]*expr.QueryEnv{}
)

func benchRun(b *testing.B, coll string) *expr.Run {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if r, ok := benchRuns[coll]; ok {
		return r
	}
	r, err := expr.Prepare(coll, benchEntities, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	r.Models(expr.VRExt) // train outside the timed region
	benchRuns[coll] = r
	return r
}

func benchEnv(b *testing.B, coll string) *expr.QueryEnv {
	b.Helper()
	r := benchRun(b, coll)
	benchMu.Lock()
	defer benchMu.Unlock()
	if e, ok := benchEnvs[coll]; ok {
		return e
	}
	env, err := expr.NewQueryEnv(r)
	if err != nil {
		b.Fatal(err)
	}
	benchEnvs[coll] = env
	return env
}

// BenchmarkDatasetGen regenerates every Table II collection.
func BenchmarkDatasetGen(b *testing.B) {
	for _, g := range dataset.Generators() {
		b.Run(g.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := g.Gen(dataset.Config{Entities: benchEntities, Seed: benchSeed})
				if c.Stats().Edges == 0 {
					b.Fatal("degenerate collection")
				}
			}
		})
	}
}

// BenchmarkRExtQualityVaryH is Fig 5(a): extraction quality while varying
// the cluster count H on the Paper collection.
func BenchmarkRExtQualityVaryH(b *testing.B) {
	r := benchRun(b, "Paper")
	for _, h := range []int{10, 30, 50} {
		b.Run(fmt.Sprintf("H=%d", h), func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				res := expr.Recovery(r, expr.RecoveryOptions{H: h})
				f = res.Mean.F1
			}
			b.ReportMetric(f, "F")
		})
	}
}

// BenchmarkRExtQualityVaryM is Fig 5(b): vary the attribute count m
// (Movie).
func BenchmarkRExtQualityVaryM(b *testing.B) {
	r := benchRun(b, "Movie")
	attrs := r.C.Recoverable[r.C.MainRel]
	for m := 1; m <= len(attrs); m++ {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				res := expr.Recovery(r, expr.RecoveryOptions{H: 30, DropAttrs: attrs[:m]})
				f = res.Mean.F1
			}
			b.ReportMetric(f, "F")
		})
	}
}

// BenchmarkRExtVaryK is Fig 5(c)+(e): quality and time while varying the
// path bound k (MovKB).
func BenchmarkRExtVaryK(b *testing.B) {
	r := benchRun(b, "MovKB")
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				res := expr.Recovery(r, expr.RecoveryOptions{K: k, H: 30})
				f = res.Mean.F1
			}
			b.ReportMetric(f, "F")
		})
	}
}

// BenchmarkRExtVaryH is Fig 5(d): extraction wall time while varying H
// (Paper) — the timing twin of BenchmarkRExtQualityVaryH.
func BenchmarkRExtVaryH(b *testing.B) {
	r := benchRun(b, "Paper")
	for _, h := range []int{10, 30, 50} {
		b.Run(fmt.Sprintf("H=%d", h), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				expr.Recovery(r, expr.RecoveryOptions{H: h})
			}
		})
	}
}

// BenchmarkRExtVariants compares the six method variants at the default
// configuration (the legend of Figs 5(a)-(e)).
func BenchmarkRExtVariants(b *testing.B) {
	r := benchRun(b, "Paper")
	for _, v := range expr.Variants() {
		b.Run(string(v), func(b *testing.B) {
			r.Models(v) // train outside the timed region
			b.ResetTimer()
			var f float64
			for i := 0; i < b.N; i++ {
				res := expr.Recovery(r, expr.RecoveryOptions{H: 30, Variant: v})
				f = res.Mean.F1
			}
			b.ReportMetric(f, "F")
		})
	}
}

// BenchmarkClusteringNoise is Fig 5(f): robustness to injected KMC label
// noise.
func BenchmarkClusteringNoise(b *testing.B) {
	r := benchRun(b, "Drugs")
	for _, pct := range []int{0, 10, 20, 30} {
		b.Run(fmt.Sprintf("noise=%d%%", pct), func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				res := expr.Recovery(r, expr.RecoveryOptions{H: 30, NoiseFrac: float64(pct) / 100})
				f = res.Mean.F1
			}
			b.ReportMetric(f, "F")
		})
	}
}

// BenchmarkHERNoise is Fig 5(g): cascading HER error η.
func BenchmarkHERNoise(b *testing.B) {
	r := benchRun(b, "Celebrity")
	for _, pct := range []int{0, 10, 25} {
		b.Run(fmt.Sprintf("eta=%d%%", pct), func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				res := expr.Recovery(r, expr.RecoveryOptions{H: 30, HERNoise: float64(pct) / 100})
				f = res.Mean.F1
			}
			b.ReportMetric(f, "F")
		})
	}
}

// BenchmarkIncExtVaryDelta is Fig 5(h)/Exp-4: one full ΔG sweep per
// iteration, reporting IncExt milliseconds at 5%/25%/45% plus the
// from-scratch RExt time alongside.
func BenchmarkIncExtVaryDelta(b *testing.B) {
	var rows []expr.IncRow
	for i := 0; i < b.N; i++ {
		rows = expr.Fig5h(expr.Options{
			Entities: benchEntities, Seed: benchSeed, Collections: []string{"Drugs"},
		})
	}
	for _, row := range rows {
		switch row.DeltaPct {
		case 5, 25, 45:
			b.ReportMetric(row.IncSeconds*1000, fmt.Sprintf("inc%d_ms", row.DeltaPct))
			if row.DeltaPct == 5 {
				b.ReportMetric(row.ExtSeconds*1000, "rext_ms")
			}
		}
	}
}

// BenchmarkHeuristicJoinAccuracy is Table III: heuristic joins forced on
// the workload, scored against exact answers.
func BenchmarkHeuristicJoinAccuracy(b *testing.B) {
	var rows []expr.TableIIIRow
	for i := 0; i < b.N; i++ {
		rows = expr.TableIII(expr.Options{
			Entities: benchEntities, Seed: benchSeed, Collections: []string{"Movie"},
		})
	}
	for _, r := range rows {
		if r.Group == "all" {
			b.ReportMetric(r.F, "F")
		}
	}
}

// BenchmarkEndToEndOptimized / Baseline / Heuristic are Exp-3(II): one
// representative enrichment query per mode over the Drugs environment.
func BenchmarkEndToEndOptimized(b *testing.B) { benchQueryMode(b, gsql.ModeAuto) }

// BenchmarkEndToEndBaseline times the conceptual-level baseline.
func BenchmarkEndToEndBaseline(b *testing.B) { benchQueryMode(b, gsql.ModeBaseline) }

// BenchmarkEndToEndHeuristic times the heuristic implementation.
func BenchmarkEndToEndHeuristic(b *testing.B) { benchQueryMode(b, gsql.ModeHeuristic) }

func benchQueryMode(b *testing.B, mode gsql.Mode) {
	env := benchEnv(b, "Drugs")
	const q = `
		select cas, name, disease from drug e-join G <disease> as T
		where not T.disease = 'Influenza'`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Engine(mode).Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkJoinGL contrasts cold vs warm gL connectivity cache
// (Exp-3(II)(4)).
func BenchmarkLinkJoinGL(b *testing.B) {
	env := benchEnv(b, "Drugs")
	const q = `
		select drug.cas, drug2.cas from drug l-join <G> drug as drug2
		where drug.cas = 'CAS-0000'`
	b.Run("warm", func(b *testing.B) {
		eng := env.Engine(gsql.ModeAuto)
		if _, err := eng.Query(q); err != nil { // populate gL
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineVsMaterialize contrasts the eager (materialise every
// intermediate) and pipelined (Volcano iterator) executions of the
// static enrichment join's three-way reduction S ⋈ f(D,G) ⋈ h(D,G): the
// pipelined plan allocates no intermediate relations between operators.
func BenchmarkPipelineVsMaterialize(b *testing.B) {
	env := benchEnv(b, "Drugs")
	base := env.Cat.Mat.Base("drug")
	if base == nil {
		b.Fatal("no drug materialisation")
	}
	s := env.Cat.Relations["drug"]
	kw := base.AR()
	cols := append(append([]string(nil), s.Schema.AttrNames()...), "vid")
	cols = append(cols, kw...)

	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sm, err := rel.NaturalJoin(s, base.Extractor.MatchRelation())
			if err != nil {
				b.Fatal(err)
			}
			j, err := rel.NaturalJoin(sm, base.Extracted)
			if err != nil {
				b.Fatal(err)
			}
			out, err := rel.Project(j, cols...)
			if err != nil {
				b.Fatal(err)
			}
			if out.Len() == 0 {
				b.Fatal("empty join")
			}
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it, err := env.Cat.Mat.StaticEnrichIter("drug", rel.NewScan(s), kw)
			if err != nil {
				b.Fatal(err)
			}
			out, err := rel.Materialize(nil, it)
			if err != nil {
				b.Fatal(err)
			}
			if out.Len() == 0 {
				b.Fatal("empty join")
			}
		}
	})
}

// BenchmarkTracingOverhead measures what the tracing subsystem adds to
// the end-to-end engine query path at the sample rates of interest:
// 0 (spans built, nothing retained), 0.01 (production sampling) and
// 1.0 (keep everything — the default). The workload is the enrichment
// join family of BenchmarkPipelineVsMaterialize driven through the
// engine, so trace creation, span recording, operator grafting, the
// keep coin-flip and ring-buffer retention are all on the measured
// path. Sampling is decided at Finish, so the rates should differ only
// by the retention cost — the acceptance bar is <3% between 0 and 0.01.
func BenchmarkTracingOverhead(b *testing.B) {
	env := benchEnv(b, "Drugs")
	const q = `
		select cas, name, disease from drug e-join G <disease> as T
		where not T.disease = 'Influenza'`
	for _, cfg := range []struct {
		name string
		rate float64
	}{
		{"rate0", 0},
		{"rate1pct", 0.01},
		{"rate100", 1.0},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			eng := env.Engine(gsql.ModeAuto)
			eng.Tracer = obs.NewTracer(cfg.rate, 0)
			eng.Traces = obs.NewTraceStore(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLSTMTrain is Exp-3(I)(a): language-model training on one
// collection's random-walk corpus of 8-step walks, the fixture's walk
// length. It reports the sentences trained per second.
func BenchmarkLSTMTrain(b *testing.B) {
	r := benchRun(b, "Drugs")
	corpus := core.BuildCorpus(r.C.G, 3, 8, benchSeed)
	vocab := nn.BuildVocab(corpus, 1)
	const epochs = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := nn.NewLSTM(vocab, nn.LSTMConfig{Seed: benchSeed})
		m.Train(corpus, epochs)
	}
	b.ReportMetric(float64(b.N*epochs*len(corpus))/b.Elapsed().Seconds(), "sentences/s")
}

// BenchmarkPrecompute is Exp-3(I)(b): offline materialisation for static
// joins.
func BenchmarkPrecompute(b *testing.B) {
	r := benchRun(b, "Drugs")
	c := r.C
	reduced, _ := c.Drop(c.MainRel, c.Recoverable[c.MainRel])
	models := r.Models(expr.VRExt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.BuildMaterialized(c.G, models, map[string]core.BaseSpec{
			c.MainRel: {D: reduced, AR: c.Recoverable[c.MainRel], Matcher: c.Oracle(c.MainRel)},
		}, core.Config{H: 30, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (DESIGN.md "design choices") ---

func ablationRecovery(b *testing.B, mutate func(*core.Config)) float64 {
	b.Helper()
	r := benchRun(b, "Movie")
	r.Models(expr.VRExt) // train outside the timed region
	b.ResetTimer()
	c := r.C
	drop := c.Recoverable[c.MainRel]
	reduced, truth := c.Drop(c.MainRel, drop)
	cfg := core.Config{H: 30, Keywords: drop, MaxAttrs: len(drop), Seed: benchSeed}
	mutate(&cfg)
	var f float64
	for i := 0; i < b.N; i++ {
		out, err := core.EnrichmentJoin(reduced, c.G, r.Models(expr.VRExt), c.Oracle(c.MainRel), drop, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var ps []expr.PRF
		for _, attr := range drop {
			ps = append(ps, expr.ValueRecovery(out, c.Main().Schema.Key, attr, truth[attr]))
		}
		f = expr.Mean(ps).F1
	}
	return f
}

// BenchmarkAblationBeam contrasts the paper's greedy selection (Beam=1)
// with the default beam (ablation 1).
func BenchmarkAblationBeam(b *testing.B) {
	for _, beam := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("beam=%d", beam), func(b *testing.B) {
			f := ablationRecovery(b, func(c *core.Config) { c.Beam = beam })
			b.ReportMetric(f, "F")
		})
	}
}

// BenchmarkAblationRefinement toggles majority-vote pattern refinement
// (ablation 3).
func BenchmarkAblationRefinement(b *testing.B) {
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			f := ablationRecovery(b, func(c *core.Config) { c.NoRefinement = off })
			b.ReportMetric(f, "F")
		})
	}
}

// BenchmarkAblationRankingTerms disables each ranking term in turn
// (ablation 4).
func BenchmarkAblationRankingTerms(b *testing.B) {
	cases := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"full", func(*core.Config) {}},
		{"noTerm1", func(c *core.Config) { c.DisableTerm1 = true }},
		{"noTerm2", func(c *core.Config) { c.DisableTerm2 = true }},
		{"noTerm3", func(c *core.Config) { c.DisableTerm3 = true }},
		{"noLengthPenalty", func(c *core.Config) { c.LengthPenalty = -1 }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			f := ablationRecovery(b, tc.mutate)
			b.ReportMetric(f, "F")
		})
	}
}

// BenchmarkAblationBounce toggles the sibling-bounce filter (ablation 7).
func BenchmarkAblationBounce(b *testing.B) {
	for _, allow := range []bool{false, true} {
		name := "filtered"
		if allow {
			name = "allowed"
		}
		b.Run(name, func(b *testing.B) {
			f := ablationRecovery(b, func(c *core.Config) { c.AllowBounce = allow })
			b.ReportMetric(f, "F")
		})
	}
}

// BenchmarkAblationPathCache contrasts Algorithm 1 with and without the
// discovery-time path cache (ablation 6).
func BenchmarkAblationPathCache(b *testing.B) {
	r := benchRun(b, "Movie")
	c := r.C
	drop := c.Recoverable[c.MainRel]
	reduced, _ := c.Drop(c.MainRel, drop)
	cfg := core.Config{H: 30, Keywords: drop, MaxAttrs: len(drop), Seed: benchSeed}
	matches := c.Oracle(c.MainRel).Match(reduced, c.G)
	ex := core.NewExtractor(c.G, r.Models(expr.VRExt), cfg)
	if err := ex.Discover(reduced, matches); err != nil {
		b.Fatal(err)
	}
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ex.Extract(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ex.ClearPathCache()
			if _, err := ex.Extract(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
