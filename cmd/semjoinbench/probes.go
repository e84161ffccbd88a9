package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"semjoin/internal/core"
	"semjoin/internal/gsql"
	"semjoin/internal/her"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
	"semjoin/internal/server"
)

// Probes time single public functions of a layer on fixed-size inputs,
// outside any window. They say which layer moved when an end-to-end
// metric does; they never gate a change.

// probeReps is how often a probe repeats; it reports the median.
const probeReps = 5

// timed runs f probeReps times and returns the median duration.
func timed(f func() error) (time.Duration, error) {
	ds := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds)), nil
}

// Sizes of the synthetic relations the rel kernels run over, per entity
// of the run's scale: at the default scale a kernel takes milliseconds
// and all probes together a few seconds; the smoke scale stays quick.
const (
	probeRowsPerEntity     = 80
	probeJoinRowsPerEntity = 8
	probeCrossRows         = 200
)

// probeRelation builds a seeded relation (k int, g int, s string): k is
// unique modulo the row count, g has 1000 groups, s is a short string.
func probeRelation(name string, rows int, rng *rand.Rand) *rel.Relation {
	r := rel.NewRelation(rel.NewSchema(name, "",
		rel.Attribute{Name: "k", Type: rel.KindInt},
		rel.Attribute{Name: "g", Type: rel.KindInt},
		rel.Attribute{Name: "s", Type: rel.KindString}))
	for i := 0; i < rows; i++ {
		r.InsertVals(rel.I(int64(rng.Intn(rows))), rel.I(int64(rng.Intn(1000))),
			rel.S(fmt.Sprintf("v%06d", rng.Intn(1000000))))
	}
	return r
}

// probeRel times the rel kernels the read workloads lean on.
func probeRel(res *runResult, scale int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	big := probeRelation("big", scale*probeRowsPerEntity, rng)
	small := probeRelation("small", scale*probeJoinRowsPerEntity, rng)
	ctx := context.Background()
	// drain pulls every batch without copying rows out, so a scan costs
	// what the kernels cost and not what materialising the result does.
	drain := func(it rel.BatchIterator) error {
		if err := it.Open(ctx); err != nil {
			it.Close()
			return err
		}
		for {
			b, err := it.NextBatch()
			if err != nil || b == nil {
				it.Close()
				return err
			}
		}
	}
	gCol := big.Schema.Col("g")
	half := rel.BatchPred(func(b *rel.Batch) {
		g := b.Col(gCol).Ints()
		b.Refine(func(row int) bool { return g[row] < 500 })
	})

	warmScan, err := timed(func() error { return drain(rel.NewBatchScan(big)) })
	if err != nil {
		return err
	}
	d, err := timed(func() error { return drain(rel.NewBatchFilter(rel.NewBatchScan(big), half)) })
	if err != nil {
		return err
	}
	res.set("rel.scan_filter_mrows_per_s", float64(big.Len())/d.Seconds()/1e6, probeReps)

	for _, p := range []struct {
		name    string
		workers int
	}{{"rel.hash_join_p1_ms", 1}, {"rel.hash_join_pN_ms", runtime.GOMAXPROCS(0)}} {
		d, err = timed(func() error {
			_, err := rel.Materialize(ctx, rel.NewHashJoinP(rel.NewScan(big), rel.NewScan(small), "k", "k", false, p.workers))
			return err
		})
		if err != nil {
			return err
		}
		res.set(p.name, ms(d), probeReps)
	}

	if d, err = timed(func() error { return drain(rel.NewBatchSort(rel.NewBatchScan(big), "s")) }); err != nil {
		return err
	}
	res.set("rel.sort_ms", ms(d), probeReps)

	if d, err = timed(func() error {
		return drain(rel.NewBatchAggregate(rel.NewBatchScan(big), []string{"g"},
			[]rel.AggSpec{{Func: rel.AggCount, Attr: "*", As: "n"}}))
	}); err != nil {
		return err
	}
	res.set("rel.aggregate_ms", ms(d), probeReps)

	a, b := probeRelation("a", probeCrossRows, rng), probeRelation("b", probeCrossRows, rng)
	if d, err = timed(func() error {
		cross := rel.NewCrossJoin([]rel.Iterator{rel.NewScan(a), rel.NewScan(b)}, []string{"a", "b"})
		_, err := rel.Materialize(ctx, rel.NewSelectWith("a.g = b.g", cross, func(s *rel.Schema) (rel.Pred, error) {
			ag, bg := s.Col("a.g"), s.Col("b.g")
			if ag < 0 || bg < 0 {
				return nil, fmt.Errorf("cross join schema %s lacks a.g/b.g", s)
			}
			return func(t rel.Tuple) bool { return t[ag].Equal(t[bg]) }, nil
		}))
		return err
	}); err != nil {
		return err
	}
	res.set("rel.cross_filter_ms", ms(d), probeReps)

	// The columnar image is dropped by an insert and rebuilt by the
	// next batch scan; the difference to a warm scan is the rebuild.
	var cold []float64
	for i := 0; i < probeReps; i++ {
		big.InsertVals(rel.I(int64(i)), rel.I(0), rel.S("fresh"))
		t := time.Now()
		if err := drain(rel.NewBatchScan(big)); err != nil {
			return err
		}
		cold = append(cold, float64(time.Since(t)))
	}
	res.set("rel.colimage_rebuild_ms", ms(time.Duration(median(cold))-warmScan), probeReps)
	return nil
}

// probeCoreRead times the read-side core functions over the fixture:
// the static enrichment join and the whole-relation link join, cold
// (gL cleared), warm (served from gL) and cold with parallel BFS.
func probeCoreRead(res *runResult, f *fixture) error {
	m := f.Cat.Mat
	d := f.Cat.Relation(mainRel)
	attrs := f.C.Recoverable[mainRel]
	ctx := context.Background()

	dur, err := timed(func() error {
		it, err := m.StaticEnrichIter(mainRel, rel.NewScan(d), attrs)
		if err != nil {
			return err
		}
		_, err = rel.Materialize(ctx, it)
		return err
	})
	if err != nil {
		return err
	}
	res.set("core.static_enrich_ms", ms(dur), probeReps)

	key := core.LinkCacheKey(mainRel, "probe", mainRel, "probe", f.Cat.K)
	link := func(par int, clear bool) func() error {
		return func() error {
			if clear {
				m.ClearGLCache()
			}
			_, err := rel.Materialize(ctx, m.StaticLinkIter(mainRel, rel.NewScan(d), mainRel, rel.NewScan(d), f.Cat.K, par, key))
			return err
		}
	}
	for _, p := range []struct {
		name  string
		par   int
		clear bool
	}{
		{"core.link_cold_ms", 1, true},
		{"core.link_warm_ms", 1, false},
		{"core.link_pN_ms", runtime.GOMAXPROCS(0), true},
	} {
		if dur, err = timed(link(p.par, p.clear)); err != nil {
			return err
		}
		res.set(p.name, ms(dur), probeReps)
	}
	return nil
}

// probeHER runs the similarity matcher over the full main relation and
// scores its matches against the collection's ground-truth alignment.
func probeHER(res *runResult, f *fixture) {
	full := f.C.Rels[mainRel]
	matcher := her.NewSimilarityMatcher(her.Config{TypeFilter: mainRel, OneToOne: true})
	t := time.Now()
	matches := matcher.Match(full, f.C.G)
	res.set("her.match_ms", ms(time.Since(t)), 1)
	truth := f.C.Truth[mainRel]
	correct := 0
	for _, m := range matches {
		if v, ok := truth[m.TID.String()]; ok && v == m.Vertex {
			correct++
		}
	}
	f1 := 0.0
	if correct > 0 {
		p, r := float64(correct)/float64(len(matches)), float64(correct)/float64(len(truth))
		f1 = 2 * p * r / (p + r)
	}
	res.set("her.f1", f1, len(truth))
}

// probeServer times the two server costs every request pays whatever
// it asks: a ping round trip and an admission decision.
func probeServer(res *runResult, w *world) error {
	c := w.clients[len(w.clients)-1]
	const pings = 300
	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t := time.Now()
		resp, _, err := c.do(server.Request{Op: server.OpPing})
		if err != nil || !resp.OK {
			return fmt.Errorf("ping: %v %s", err, resp.Error)
		}
		rtts = append(rtts, us(time.Since(t)))
	}
	res.set("server.ping_rtt_us", median(rtts), pings)

	const admits = 2000
	ctl := w.srv.Controller()
	t := time.Now()
	for i := 0; i < admits; i++ {
		release, err := ctl.Admit(context.Background())
		if err != nil {
			return fmt.Errorf("admit: %w", err)
		}
		release()
	}
	res.set("server.admit_us", us(time.Since(t))/admits, admits)
	return nil
}

// probeObs compares in-process query latency with the engine's tracer
// keeping every trace against keeping none, over the same reads. Both
// engines run every read once untimed first, so that neither meets a
// cold gL cache or cold CPU caches, and they take turns going first.
func probeObs(res *runResult, cat *gsql.Catalog, reads []request) error {
	if len(reads) == 0 {
		return nil
	}
	engines := [2]*gsql.Engine{}
	for i, rate := range []float64{0, 1} {
		e := gsql.NewEngine(cat)
		e.Obs = obs.NewRegistry()
		e.Tracer = obs.NewTracer(rate, 0)
		e.Traces = obs.NewTraceStore(256)
		e.Queries = obs.NewQueryLog()
		engines[i] = e
	}
	var lat [2][]float64
	for _, timed := range []bool{false, true} {
		for n, r := range reads {
			for j := range engines {
				i := (n + j) % 2
				t := time.Now()
				if _, err := engines[i].Query(r.Text); err != nil {
					return fmt.Errorf("obs probe %q: %w", r.Text, err)
				}
				if timed {
					lat[i] = append(lat[i], us(time.Since(t)))
				}
			}
		}
	}
	off, on := median(lat[0]), median(lat[1])
	res.set("obs.trace_overhead_pct", (on-off)/off*100, len(reads))
	return nil
}

// probeProfile times the graph profiling NewQueryEnv does for heuristic
// joins, with the arguments it passes.
func probeProfile(res *runResult, f *fixture) {
	t := time.Now()
	core.ProfileGraph(f.C.G, f.Cat.Models, f.C.TypeKeywords, 2, f.rextConfig())
	res.set("core.profile_s", time.Since(t).Seconds(), 1)
}
