package main

import (
	"fmt"
	"strings"
	"time"

	"semjoin/internal/core"
	"semjoin/internal/dataset"
	"semjoin/internal/expr"
	"semjoin/internal/gsql"
)

// collection is the one data collection the benchmark runs over; its
// main relation is the durable base every workload OPENs.
const (
	collection = "Drugs"
	mainRel    = "drug"
)

// fixtureSeed seeds the generated collection and the model training. It
// is a constant, not the run's -seed: which paths the trained sequence
// model prefers decides how much work IncExt does per affected vertex,
// and across seeds that cost falls into two modes 1.7x apart, which
// would drown every write-side metric in seed-to-seed variation. The
// database is fixed, as in any benchmark with a fixed data set; -seed
// varies what is asked of it.
const fixtureSeed = 7

// fixtureTimings attributes fixture build time to the layer that spent
// it (seconds). They are the per-layer metrics that move setup_s.
type fixtureTimings struct {
	EmbedTrain float64 // embed: walk corpus + GloVe + type channel
	NNTrain    float64 // nn: LSTM over the walk corpus, one epoch
	Discover   float64 // core: RExt phase I (selection, embedding, KMC, ranking)
	Extract    float64 // core: RExt phase II (Algorithm 1)
	KMeans     float64 // cluster: the KMC share of Discover
}

// fixture is one ready-to-serve catalog, built the way cmd/gsql builds
// its own (expr.Prepare, then expr.NewQueryEnv), plus the ground truth
// the benchmark checks extraction quality against.
type fixture struct {
	C   *dataset.Collection
	Cat *gsql.Catalog
	// Truth is attr -> key -> dropped value for the recoverable columns.
	Truth map[string]map[string]string
	T     fixtureTimings
}

// buildFixture generates the collection at the given scale, trains the
// model pair with one epoch and runs the offline preprocessing of §IV-A.
func buildFixture(entities int) (*fixture, error) {
	run, err := expr.Prepare(collection, entities, fixtureSeed)
	if err != nil {
		return nil, err
	}
	if run.C.MainRel != mainRel {
		return nil, fmt.Errorf("collection %s has main relation %q, the workloads are written for %q", collection, run.C.MainRel, mainRel)
	}
	run.Epochs = 1
	f := &fixture{C: run.C}

	// Run.Models memoises the sub-models variants share: RndPath needs
	// only the word embedder RExt also uses, so asking for it first
	// trains the embedder alone, and RExt then adds only the LSTM. The
	// work is that of Models(VRExt); the split gives each layer its time.
	t := time.Now()
	run.Models(expr.VRndPath)
	f.T.EmbedTrain = time.Since(t).Seconds()
	t = time.Now()
	run.Models(expr.VRExt)
	f.T.NNTrain = time.Since(t).Seconds()

	env, err := expr.NewQueryEnv(run)
	if err != nil {
		return nil, fmt.Errorf("materialise: %w", err)
	}
	f.Cat = env.Cat
	rt := f.Cat.Mat.Base(mainRel).Extractor.Timings()
	f.T.Discover = rt.Selection + rt.Embedding + rt.Clustering + rt.Ranking
	f.T.KMeans = rt.Clustering
	f.T.Extract = rt.Extraction
	_, f.Truth = run.C.Drop(mainRel, run.C.Recoverable[mainRel])
	return f, nil
}

// rextConfig is the extraction configuration the catalog's
// materialisation was built with, as OPEN derives it.
func (f *fixture) rextConfig() core.Config {
	cfg := f.Cat.RExt
	cfg.K = f.Cat.K
	return cfg
}

// extractF1 is the mean F-measure of the materialised extraction over
// the recoverable columns: a static e-join over the whole main relation
// scored against the dropped ground truth.
func (f *fixture) extractF1() (float64, error) {
	attrs := f.C.Recoverable[mainRel]
	key := f.Cat.Relations[mainRel].Schema.Key
	out, err := gsql.NewEngine(f.Cat).Query(fmt.Sprintf("select %s, %s from %s e-join G <%s> as T",
		key, strings.Join(attrs, ", "), mainRel, strings.Join(attrs, ", ")))
	if err != nil {
		return 0, err
	}
	var prfs []expr.PRF
	for _, attr := range attrs {
		prfs = append(prfs, expr.ValueRecovery(out, key, attr, f.Truth[attr]))
	}
	return expr.Mean(prfs).F1, nil
}
