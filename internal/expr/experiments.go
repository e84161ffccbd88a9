package expr

import (
	"fmt"
	"strings"
	"time"

	"semjoin/internal/core"
	"semjoin/internal/dataset"
	"semjoin/internal/graph"
	"semjoin/internal/gsql"
	"semjoin/internal/mat"
)

// Options scales and scopes an experiment run.
type Options struct {
	// Entities per collection (default 60).
	Entities int
	// Seed for data generation and training (default 7).
	Seed uint64
	// Collections restricts the collections swept (default: all six).
	Collections []string
	// Variants restricts the method variants (default: all six).
	Variants []Variant
}

func (o Options) withDefaults() Options {
	if o.Entities == 0 {
		o.Entities = 60
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if len(o.Collections) == 0 {
		o.Collections = []string{"Drugs", "FakeNews", "Movie", "MovKB", "Paper", "Celebrity"}
	}
	if len(o.Variants) == 0 {
		o.Variants = Variants()
	}
	return o
}

// Point is one x/y pair of a figure series.
type Point struct{ X, Y float64 }

// Series is one labelled line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is the data behind one paper figure.
type Figure struct {
	ID, Title, XLabel, YLabel string
	Series                    []Series
}

// TableII generates every collection and reports its statistics.
func TableII(o Options) []dataset.Stats {
	o = o.withDefaults()
	var out []dataset.Stats
	for _, name := range o.Collections {
		c := dataset.ByName(name)(dataset.Config{Entities: o.Entities, Seed: o.Seed})
		out = append(out, c.Stats())
	}
	return out
}

// variantSweep runs the recovery protocol over a parameter sweep for each
// variant, yielding one series per variant.
func variantSweep(o Options, coll string, xs []int, opt func(x int) RecoveryOptions, yOf func(RecoveryResult) float64) Figure {
	r := mustPrepare(Prepare(coll, o.Entities, o.Seed))
	var series []Series
	for _, v := range o.Variants {
		s := Series{Name: string(v)}
		for _, x := range xs {
			ro := opt(x)
			ro.Variant = v
			res := Recovery(r, ro)
			s.Points = append(s.Points, Point{X: float64(x), Y: yOf(res)})
		}
		series = append(series, s)
	}
	return Figure{Series: series}
}

func f1Of(r RecoveryResult) float64   { return r.Mean.F1 }
func timeOf(r RecoveryResult) float64 { return r.Seconds }

// Fig5a: RExt quality vs the number of clusters H (Paper collection).
func Fig5a(o Options) Figure {
	o = o.withDefaults()
	f := variantSweep(o, "Paper", []int{10, 20, 30, 40, 50},
		func(h int) RecoveryOptions { return RecoveryOptions{H: h} }, f1Of)
	f.ID, f.Title = "5a", "RExt quality: vary H (Paper)"
	f.XLabel, f.YLabel = "H", "F-measure"
	return f
}

// Fig5b: quality vs the number m of extracted attributes (Movie).
func Fig5b(o Options) Figure {
	o = o.withDefaults()
	r := mustPrepare(Prepare("Movie", o.Entities, o.Seed))
	attrs := r.C.Recoverable[r.C.MainRel]
	var series []Series
	for _, v := range o.Variants {
		s := Series{Name: string(v)}
		for m := 1; m <= len(attrs); m++ {
			res := Recovery(r, RecoveryOptions{Variant: v, H: 30, DropAttrs: attrs[:m]})
			s.Points = append(s.Points, Point{X: float64(m), Y: res.Mean.F1})
		}
		series = append(series, s)
	}
	return Figure{ID: "5b", Title: "RExt quality: vary m (Movie)",
		XLabel: "m", YLabel: "F-measure", Series: series}
}

// Fig5c: quality vs the path bound k (MovKB).
func Fig5c(o Options) Figure {
	o = o.withDefaults()
	f := variantSweep(o, "MovKB", []int{1, 2, 3, 4},
		func(k int) RecoveryOptions { return RecoveryOptions{K: k, H: 30} }, f1Of)
	f.ID, f.Title = "5c", "RExt quality: vary k (MovKB)"
	f.XLabel, f.YLabel = "k", "F-measure"
	return f
}

// Fig5d: extraction time vs H (Paper).
func Fig5d(o Options) Figure {
	o = o.withDefaults()
	f := variantSweep(o, "Paper", []int{10, 20, 30, 40, 50},
		func(h int) RecoveryOptions { return RecoveryOptions{H: h} }, timeOf)
	f.ID, f.Title = "5d", "RExt efficiency: vary H (Paper)"
	f.XLabel, f.YLabel = "H", "seconds"
	return f
}

// Fig5e: extraction time vs k (MovKB).
func Fig5e(o Options) Figure {
	o = o.withDefaults()
	f := variantSweep(o, "MovKB", []int{1, 2, 3, 4},
		func(k int) RecoveryOptions { return RecoveryOptions{K: k, H: 30} }, timeOf)
	f.ID, f.Title = "5e", "RExt efficiency: vary k (MovKB)"
	f.XLabel, f.YLabel = "k", "seconds"
	return f
}

// VaryA is Exp-2(a)(4): quality while growing the keyword set A with
// value exemplars drawn from the dropped columns (as the paper expands A
// with randomly picked values like "vol. 41" or "NASA"). The paper
// reports fluctuation but robustness (F ≥ 0.89 throughout).
func VaryA(o Options) Figure {
	o = o.withDefaults()
	var series []Series
	for _, coll := range o.Collections {
		r := mustPrepare(Prepare(coll, o.Entities, o.Seed))
		drop := r.C.Recoverable[r.C.MainRel]
		_, truth := r.C.Drop(r.C.MainRel, drop)
		// Exemplar pool: one value per dropped attribute, deterministic.
		var exemplars []string
		for _, attr := range drop {
			for _, v := range truth[attr] {
				exemplars = append(exemplars, v)
				break
			}
		}
		s := Series{Name: coll}
		for extra := 0; extra <= len(exemplars); extra++ {
			res := Recovery(r, RecoveryOptions{H: 30, ExtraKeywords: exemplars[:extra]})
			s.Points = append(s.Points, Point{X: float64(len(drop) + extra), Y: res.Mean.F1})
		}
		series = append(series, s)
	}
	return Figure{ID: "varyA", Title: "RExt quality: vary |A| with value exemplars",
		XLabel: "|A|", YLabel: "F-measure", Series: series}
}

// Fig5f: quality vs injected clustering noise (all collections).
func Fig5f(o Options) Figure {
	o = o.withDefaults()
	var series []Series
	for _, coll := range o.Collections {
		r := mustPrepare(Prepare(coll, o.Entities, o.Seed))
		s := Series{Name: coll}
		for _, pct := range []int{0, 5, 10, 15, 20, 25, 30} {
			res := Recovery(r, RecoveryOptions{H: 30, NoiseFrac: float64(pct) / 100})
			s.Points = append(s.Points, Point{X: float64(pct), Y: res.Mean.F1})
		}
		series = append(series, s)
	}
	return Figure{ID: "5f", Title: "clustering quality (all datasets)",
		XLabel: "noisy labels %", YLabel: "F-measure", Series: series}
}

// Fig5g: quality vs HER mismatch rate η (all collections).
func Fig5g(o Options) Figure {
	o = o.withDefaults()
	var series []Series
	for _, coll := range o.Collections {
		r := mustPrepare(Prepare(coll, o.Entities, o.Seed))
		s := Series{Name: coll}
		for _, pct := range []int{0, 5, 10, 15, 20, 25} {
			res := Recovery(r, RecoveryOptions{H: 30, HERNoise: float64(pct) / 100})
			s.Points = append(s.Points, Point{X: float64(pct), Y: res.Mean.F1})
		}
		series = append(series, s)
	}
	return Figure{ID: "5g", Title: "cascading HER (all datasets)",
		XLabel: "η %", YLabel: "F-measure", Series: series}
}

// IncRow is one Fig 5(h) / Exp-4 measurement.
type IncRow struct {
	Collection string
	DeltaPct   int
	IncSeconds float64
	ExtSeconds float64 // from-scratch RExt on the updated graph
	Candidates int     // matched vertices in ΔG's k-hop ball
	Affected   int     // of those, the ones re-extracted
}

// Fig5h sweeps |ΔG| from 5% to 45% of |G| and times IncExt against a
// from-scratch RExt run on the updated graph (all collections).
func Fig5h(o Options) []IncRow {
	o = o.withDefaults()
	var rows []IncRow
	for _, coll := range o.Collections {
		// Models are trained offline once on the pristine graph — IncExt
		// never retrains them — so share one Run across the sweep and
		// regenerate the (identical) collection per ΔG point.
		trained := mustPrepare(Prepare(coll, o.Entities, o.Seed))
		trained.Models(VRExt)
		for _, pct := range []int{5, 15, 25, 35, 45} {
			rows = append(rows, incOnce(trained, o, pct))
		}
	}
	return rows
}

func incOnce(trained *Run, o Options, pct int) IncRow {
	coll := trained.C.Name
	c := dataset.ByName(coll)(dataset.Config{Entities: o.Entities, Seed: o.Seed})
	r := trained
	drop := c.Recoverable[c.MainRel]
	reduced, _ := c.Drop(c.MainRel, drop)
	models := r.Models(VRExt)
	matcher := c.Oracle(c.MainRel)
	cfg := core.Config{H: 30, Keywords: drop, MaxAttrs: len(drop), Seed: o.Seed}

	ex := core.NewExtractor(c.G, models, cfg)
	if _, err := ex.Run(reduced, matcher.Match(reduced, c.G)); err != nil {
		return IncRow{Collection: coll, DeltaPct: pct}
	}

	n := c.G.NumEdges() * pct / 100
	if n < 2 {
		n = 2
	}
	batch := graph.RandomBatch(c.G, matRNG(o.Seed+uint64(pct)), n)
	// Apply the same ΔG to a clone for the from-scratch comparison.
	clone := c.G.Clone()
	cloneBatch := append(graph.Batch(nil), batch...)
	cloneBatch.Apply(clone)

	start := time.Now()
	stats, err := ex.ApplyGraphUpdate(batch, matcher)
	incSecs := time.Since(start).Seconds()
	if err != nil {
		return IncRow{Collection: coll, DeltaPct: pct}
	}

	start = time.Now()
	fresh := core.NewExtractor(clone, models, cfg)
	_, _ = fresh.Run(reduced, matcher.Match(reduced, clone))
	extSecs := time.Since(start).Seconds()

	return IncRow{Collection: coll, DeltaPct: pct,
		IncSeconds: incSecs, ExtSeconds: extSecs,
		Candidates: stats.Candidates, Affected: stats.Affected}
}

// ScaleRow is one Exp-3(III) scalability measurement: extraction of the
// full relation at one data scale, with the per-stage breakdown.
type ScaleRow struct {
	Collection string
	Entities   int
	Tuples     int
	Edges      int
	Seconds    float64
	Stages     core.Timings
	F          float64
}

// ScaleSweep is Exp-3(III): RExt extracting h(S,G) for the entire input
// relation at growing data scales (the paper: "RExt scales well with
// large relations and graphs", 230.4s at 3.4M tuples / 10.2M edges).
func ScaleSweep(o Options, scales []int) []ScaleRow {
	o = o.withDefaults()
	if len(scales) == 0 {
		scales = []int{50, 100, 200, 400}
	}
	var rows []ScaleRow
	for _, coll := range o.Collections {
		for _, n := range scales {
			r := mustPrepare(Prepare(coll, n, o.Seed))
			c := r.C
			drop := c.Recoverable[c.MainRel]
			reduced, truth := c.Drop(c.MainRel, drop)
			models := r.Models(VRExt) // trained outside the timed region
			matcher := c.Oracle(c.MainRel)
			cfg := core.Config{H: 30, Keywords: drop, MaxAttrs: len(drop), Seed: o.Seed}

			start := time.Now()
			ex := core.NewExtractor(c.G, models, cfg)
			dg, err := ex.Run(reduced, matcher.Match(reduced, c.G))
			secs := time.Since(start).Seconds()
			row := ScaleRow{
				Collection: coll, Entities: n,
				Tuples: reduced.Len(), Edges: c.G.NumEdges(),
				Seconds: secs, Stages: ex.Timings(),
			}
			if err == nil && dg != nil {
				out, jerr := ex.Enriched()
				if jerr == nil {
					var ps []PRF
					for _, attr := range drop {
						ps = append(ps, ValueRecovery(out, c.Main().Schema.Key, attr, truth[attr]))
					}
					row.F = Mean(ps).F1
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// TableIIIRow is one relative-accuracy aggregate of Table III.
type TableIIIRow struct {
	Group string
	F     float64
	N     int
}

// TableIII enforces heuristic joins on every workload query and scores
// them against exact answers (static/dynamic for well-behaved, baseline
// for the rest), aggregated by join type and by collection.
func TableIII(o Options) []TableIIIRow {
	o = o.withDefaults()
	type agg struct {
		sum float64
		n   int
	}
	groups := map[string]*agg{}
	addTo := func(g string, f float64) {
		a := groups[g]
		if a == nil {
			a = &agg{}
			groups[g] = a
		}
		a.sum += f
		a.n++
	}
	for _, coll := range o.Collections {
		r := mustPrepare(Prepare(coll, o.Entities, o.Seed))
		env, err := NewQueryEnv(r)
		if err != nil {
			continue
		}
		for _, q := range byColl(Workload(), coll) {
			exactMode := gsql.ModeAuto
			if !q.WellBehaved {
				exactMode = gsql.ModeBaseline
			}
			exact, err := env.Engine(exactMode).Query(q.SQL)
			if err != nil {
				continue
			}
			heur, err := env.Engine(gsql.ModeHeuristic).Query(q.SQL)
			if err != nil {
				continue
			}
			f := RowSetF(heur, exact).F1
			addTo("all", f)
			addTo(coll, f)
			if q.Link {
				addTo("link", f)
			} else {
				addTo("enrichment", f)
			}
			if !q.WellBehaved {
				addTo("non-well-behaved", f)
			}
		}
	}
	order := append([]string{"all", "non-well-behaved", "enrichment", "link"}, o.Collections...)
	var rows []TableIIIRow
	for _, g := range order {
		if a, ok := groups[g]; ok && a.n > 0 {
			rows = append(rows, TableIIIRow{Group: g, F: a.sum / float64(a.n), N: a.n})
		}
	}
	return rows
}

// QueryTiming is one end-to-end measurement of Exp-3(II).
type QueryTiming struct {
	ID          string
	Collection  string
	WellBehaved bool
	Link        bool
	OptimizedMS float64 // ModeAuto (static/dynamic/heuristic per planner)
	BaselineMS  float64 // ModeBaseline (HER+RExt online)
	HeuristicMS float64 // ModeHeuristic
	WarmLinkMS  float64 // second run, gL cache warm (link queries only)
	// RowsProcessed totals the rows-out of every operator in the
	// optimized run's plan (from the engine's per-operator ExecStats).
	RowsProcessed int64
}

// EndToEndResult aggregates Exp-3(II).
type EndToEndResult struct {
	PerQuery []QueryTiming
	// PrecomputeSeconds per collection (materialisation + profiling).
	PrecomputeSeconds map[string]float64
}

// EndToEnd times every workload query under the optimized, baseline and
// heuristic implementations.
func EndToEnd(o Options) EndToEndResult {
	o = o.withDefaults()
	res := EndToEndResult{PrecomputeSeconds: map[string]float64{}}
	for _, coll := range o.Collections {
		r := mustPrepare(Prepare(coll, o.Entities, o.Seed))
		start := time.Now()
		env, err := NewQueryEnv(r)
		if err != nil {
			continue
		}
		res.PrecomputeSeconds[coll] = time.Since(start).Seconds()
		for _, q := range byColl(Workload(), coll) {
			qt := QueryTiming{ID: q.ID, Collection: coll, WellBehaved: q.WellBehaved, Link: q.Link}
			qt.OptimizedMS, qt.RowsProcessed = timeQuery(env, gsql.ModeAuto, q.SQL)
			qt.BaselineMS, _ = timeQuery(env, gsql.ModeBaseline, q.SQL)
			qt.HeuristicMS, _ = timeQuery(env, gsql.ModeHeuristic, q.SQL)
			if q.Link {
				qt.WarmLinkMS, _ = timeQuery(env, gsql.ModeAuto, q.SQL) // gL now cached
			}
			res.PerQuery = append(res.PerQuery, qt)
		}
	}
	return res
}

func timeQuery(env *QueryEnv, mode gsql.Mode, sql string) (ms float64, rows int64) {
	eng := env.Engine(mode)
	start := time.Now()
	if _, err := eng.Query(sql); err != nil {
		return -1, 0
	}
	ms = float64(time.Since(start).Microseconds()) / 1000
	if eng.LastStats != nil {
		rows = eng.LastStats.TotalRows()
	}
	return ms, rows
}

// ExplainSamples renders the annotated EXPLAIN plan (per-operator rows
// out and wall time) for one enrichment-join and one link-join query of
// the workload's first collection.
func ExplainSamples(o Options) (string, error) {
	o = o.withDefaults()
	coll := o.Collections[0]
	env, err := NewQueryEnv(mustPrepare(Prepare(coll, o.Entities, o.Seed)))
	if err != nil {
		return "", err
	}
	eng := env.Engine(gsql.ModeAuto)
	var b strings.Builder
	var gotEnrich, gotLink bool
	for _, q := range byColl(Workload(), coll) {
		if q.Link && gotLink || !q.Link && gotEnrich {
			continue
		}
		text, err := eng.Explain(q.SQL)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "EXPLAIN %s\n%s\n", q.ID, text)
		if q.Link {
			gotLink = true
		} else {
			gotEnrich = true
		}
		if gotEnrich && gotLink {
			break
		}
	}
	return b.String(), nil
}

// TrainingRow reports model-training cost per collection (Exp-3(I)(a)).
type TrainingRow struct {
	Collection  string
	LSTMSeconds float64
	BertSeconds float64
}

// Training times sequence-model training per collection.
func Training(o Options) []TrainingRow {
	o = o.withDefaults()
	var rows []TrainingRow
	for _, coll := range o.Collections {
		r := mustPrepare(Prepare(coll, o.Entities, o.Seed))
		start := time.Now()
		r.Models(VRExt)
		lstm := time.Since(start).Seconds()
		start = time.Now()
		r.Models(VBertSeq)
		bert := time.Since(start).Seconds()
		rows = append(rows, TrainingRow{Collection: coll, LSTMSeconds: lstm, BertSeconds: bert})
	}
	return rows
}

// PrecomputeRow reports offline pre-extraction cost and size (Exp-3(I)(b)).
type PrecomputeRow struct {
	Collection     string
	Seconds        float64
	ExtractedCells int     // tuples × attributes materialised
	GraphEdges     int     //
	SizeRatio      float64 // cells / edges, the paper's %-of-raw proxy
}

// Precompute times BuildMaterialized per collection and reports the
// materialised size relative to the graph.
func Precompute(o Options) []PrecomputeRow {
	o = o.withDefaults()
	var rows []PrecomputeRow
	for _, coll := range o.Collections {
		r := mustPrepare(Prepare(coll, o.Entities, o.Seed))
		c := r.C
		reduced, _ := c.Drop(c.MainRel, c.Recoverable[c.MainRel])
		start := time.Now()
		mat, err := core.BuildMaterialized(c.G, r.Models(VRExt), map[string]core.BaseSpec{
			c.MainRel: {D: reduced, AR: c.Recoverable[c.MainRel], Matcher: c.Oracle(c.MainRel)},
		}, core.Config{H: 30, Seed: o.Seed})
		secs := time.Since(start).Seconds()
		if err != nil {
			continue
		}
		b := mat.Base(c.MainRel)
		f := b.MatchRelation()
		cells := b.Extracted.Len()*len(b.Extracted.Schema.Attrs) +
			f.Len()*len(f.Schema.Attrs)
		rows = append(rows, PrecomputeRow{
			Collection: coll, Seconds: secs, ExtractedCells: cells,
			GraphEdges: c.G.NumEdges(),
			SizeRatio:  float64(cells) / float64(c.G.NumEdges()),
		})
	}
	return rows
}

// CaseStudyResult verifies the Exp-1 narratives.
type CaseStudyResult struct {
	// Q1Pairs is the number of conflicting same-disease drug pairs found.
	Q1Pairs int
	// Q1Accuracy is the fraction of returned pairs that truly share a
	// treated disease per ground truth.
	Q1Accuracy float64
	// SpinosadDisease is the disease extracted for Spinosad (the paper's
	// positive example; must be its treats-target, not a symptom-linked
	// disease).
	SpinosadDisease string
	// SpinosadCorrect reports whether it matches ground truth.
	SpinosadCorrect bool
	// Q2Topics is the number of (author, topic) rows of the FakeNews q2.
	Q2Topics int
	// Q2Accuracy is the fraction matching ground truth.
	Q2Accuracy float64
}

// CaseStudy runs the two Exp-1 tasks: q1 (conflicting drugs for the same
// disease, over Drugs) and q2 (fake-news author topics, over FakeNews).
func CaseStudy(o Options) (CaseStudyResult, error) {
	o = o.withDefaults()
	var out CaseStudyResult

	// q1 over Drugs.
	r := mustPrepare(Prepare("Drugs", o.Entities, o.Seed))
	env, err := NewQueryEnv(r)
	if err != nil {
		return out, err
	}
	q1 := `
		select T1.cas, T2.cas, T1.disease
		from drug e-join G <disease> as T1,
		     drug e-join G <disease> as T2,
		     interact
		where interact.cas1 = T1.cas and interact.cas2 = T2.cas
		  and interact.type = -1 and T1.disease = T2.disease
		  and not T1.cas = T2.cas`
	res, err := env.Engine(gsql.ModeAuto).Query(q1)
	if err != nil {
		return out, err
	}
	out.Q1Pairs = res.Len()
	truthDisease := map[string]string{}
	main := r.C.Main()
	keyCol := main.Schema.KeyCol()
	disCol := main.Schema.Col("disease")
	for _, t := range main.Tuples {
		truthDisease[t[keyCol].String()] = t[disCol].String()
	}
	hits := 0
	for _, t := range res.Tuples {
		a := res.Get(t, "T1.cas").Str()
		b := res.Get(t, "T2.cas").Str()
		if truthDisease[a] != "" && truthDisease[a] == truthDisease[b] {
			hits++
		}
	}
	if res.Len() > 0 {
		out.Q1Accuracy = float64(hits) / float64(res.Len())
	}

	// Spinosad discrimination.
	sp, err := env.Engine(gsql.ModeAuto).Query(`
		select cas, disease from drug e-join G <disease> as T where T.name = 'Spinosad'`)
	if err == nil && sp.Len() > 0 {
		out.SpinosadDisease = sp.Get(sp.Tuples[0], "disease").Str()
		out.SpinosadCorrect = out.SpinosadDisease == truthDisease[sp.Get(sp.Tuples[0], "cas").Str()]
	}

	// q2 over FakeNews.
	r2 := mustPrepare(Prepare("FakeNews", o.Entities, o.Seed))
	env2, err := NewQueryEnv(r2)
	if err != nil {
		return out, err
	}
	res2, err := env2.Engine(gsql.ModeAuto).Query(`
		select author, topic from fakenews e-join G <topic> as T`)
	if err != nil {
		return out, err
	}
	out.Q2Topics = res2.Len()
	main2 := r2.C.Main()
	topicTruth := map[string]string{}
	kc := main2.Schema.KeyCol()
	tc := main2.Schema.Col("topic")
	for _, t := range main2.Tuples {
		topicTruth[t[kc].String()] = t[tc].String()
	}
	hits2 := 0
	for _, t := range res2.Tuples {
		if res2.Get(t, "topic").Str() == topicTruth[res2.Get(t, "author").Str()] {
			hits2++
		}
	}
	if res2.Len() > 0 {
		out.Q2Accuracy = float64(hits2) / float64(res2.Len())
	}
	return out, nil
}

// matRNG builds a deterministic RNG for update batches.
func matRNG(seed uint64) *mat.RNG { return mat.NewRNG(seed) }
