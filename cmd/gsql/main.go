// Command gsql is an interactive shell for gSQL queries over one of the
// generated collections. It performs the offline preprocessing of §IV
// (model training, materialisation, graph profiling) at startup, then
// reads queries from stdin, printing results and the chosen join
// strategy (static / dynamic / heuristic / baseline).
//
// Usage:
//
//	gsql -collection Drugs -entities 60
//	> select cas, disease from drug e-join G <disease> as T where T.disease = 'Malaria'
//	> \mode baseline
//	> \tables
//	> \quit
//
// Real data instead of a generated collection: load a TSV graph and one
// or more CSV relations (HER then uses the similarity matcher):
//
//	gsql -graph kg.tsv -table product=products.csv:pid -keywords company,country
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"semjoin/internal/core"
	"semjoin/internal/dataio"
	"semjoin/internal/expr"
	"semjoin/internal/graph"
	"semjoin/internal/gsql"
	"semjoin/internal/her"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
	"semjoin/internal/server"
	"semjoin/internal/wal"
)

type tableFlags []string

func (t *tableFlags) String() string     { return strings.Join(*t, ",") }
func (t *tableFlags) Set(s string) error { *t = append(*t, s); return nil }

func main() {
	collection := flag.String("collection", "Drugs", "collection to load (Drugs, FakeNews, Movie, MovKB, Paper, Celebrity)")
	entities := flag.Int("entities", 60, "entities to generate")
	seed := flag.Uint64("seed", 7, "random seed")
	graphPath := flag.String("graph", "", "TSV graph file (switches to real-data mode)")
	keywords := flag.String("keywords", "", "comma-separated reference keywords AR (real-data mode)")
	epochs := flag.Int("epochs", 6, "sequence-model training epochs (real-data mode)")
	query := flag.String("query", "", "execute one query and exit (batch mode)")
	saveModels := flag.String("savemodels", "", "after training, persist the model pair to this file")
	loadModels := flag.String("loadmodels", "", "load a persisted model pair instead of training (real-data mode)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /queries, expvar and pprof on this address (e.g. :8077)")
	serveAddr := flag.String("serve", "", "run as a network server on this address (e.g. :7483) instead of a REPL; JSON-lines wire protocol, one session per connection")
	maxConcurrent := flag.Int("max-concurrent", 0, "server mode: queries executing at once (0 = 2×GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "server mode: requests queued beyond that before shedding (0 = 16×max-concurrent)")
	maxSessions := flag.Int("max-sessions", 0, "server mode: concurrent session cap (0 = 4096)")
	queueWaitMS := flag.Int("queue-wait-ms", 0, "server mode: longest queue wait before shedding (0 = 5000)")
	traceSample := flag.Float64("trace-sample", 1.0, "fraction of query traces to keep for /traces and SHOW TRACES (0..1; shed, slow and TRACE'd queries are always kept)")
	traceSlowMS := flag.Int("trace-slow-ms", 0, "always keep traces of queries at least this slow, regardless of -trace-sample (0 = disabled)")
	logLevel := flag.String("log-level", "info", "structured JSON log level on stderr: debug, info, warn, error")
	dataDir := flag.String("data-dir", "", "open a write-ahead-logged store per materialized base under this directory; updates stream through the WAL and a restart replays them")
	fsync := flag.String("fsync", "batch", "WAL sync policy for -data-dir: always (fsync per record), batch (group commit), never")
	checkpointEvery := flag.Int("checkpoint-every", 0, "auto-checkpoint a durable store after this many WAL records (0 = manual CHECKPOINT only)")
	var tables tableFlags
	flag.Var(&tables, "table", "name=file.csv[:keycol], repeatable (real-data mode)")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logger := obs.NewLogger(os.Stderr, level)
	tracer := obs.NewTracer(*traceSample, time.Duration(*traceSlowMS)*time.Millisecond)

	if *debugAddr != "" {
		addr, err := startDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("debug server listening on http://%s\n", addr)
	}

	start := time.Now()
	var env *expr.QueryEnv
	if *graphPath != "" {
		env, err = loadRealData(*graphPath, tables, *keywords, *epochs, *seed, *loadModels)
	} else {
		fmt.Printf("loading %s (%d entities), training models and materialising...\n", *collection, *entities)
		var r *expr.Run
		r, err = expr.Prepare(*collection, *entities, *seed)
		if err == nil {
			env, err = expr.NewQueryEnv(r)
		}
		if err == nil {
			fmt.Printf("graph: %d vertices, %d edges\n", r.C.G.NumVertices(), r.C.G.NumEdges())
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "setup:", err)
		os.Exit(1)
	}
	fmt.Printf("ready in %.1fs\n", time.Since(start).Seconds())
	if *dataDir != "" {
		if err := openDurableStores(env, *dataDir, *fsync, *checkpointEvery); err != nil {
			fmt.Fprintln(os.Stderr, "data-dir:", err)
			os.Exit(1)
		}
		defer func() {
			if err := env.Cat.Durable.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "durable close:", err)
			}
		}()
	}
	if *serveAddr != "" {
		if err := serveNetwork(env, *serveAddr, server.Limits{
			MaxConcurrent: *maxConcurrent,
			MaxQueue:      *maxQueue,
			MaxSessions:   *maxSessions,
			QueueWait:     time.Duration(*queueWaitMS) * time.Millisecond,
		}, tracer, logger); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		return
	}
	// REPL and batch engines share the flag-configured tracer/logger so
	// TRACE / SHOW TRACES and /traces behave identically to server mode.
	newEngine := func(m gsql.Mode) *gsql.Engine {
		e := env.Engine(m)
		e.Tracer = tracer
		e.Log = logger
		return e
	}
	if *query != "" {
		eng := newEngine(gsql.ModeAuto)
		runQuery(eng, strings.TrimSuffix(strings.TrimSpace(*query), ";"))
		return
	}
	if *saveModels != "" {
		if err := persistModels(*saveModels, env.Cat.Models); err != nil {
			fmt.Fprintln(os.Stderr, "savemodels:", err)
		} else {
			fmt.Printf("models saved to %s\n", *saveModels)
		}
	}
	printTables(env)
	fmt.Println(`type a gSQL query ending in ';' (prefix with 'explain' for the plan, 'explain analyze' for the trace; 'show metrics;' dumps counters), or \tables, \mode auto|baseline|heuristic, \plan, \quit`)

	mode := gsql.ModeAuto
	eng := newEngine(mode)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Print("gsql> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == `\quit` || line == `\q`:
			return
		case line == `\tables`:
			printTables(env)
			fmt.Print("gsql> ")
			continue
		case line == `\plan`:
			for _, p := range eng.Plan {
				fmt.Println(" ", p)
			}
			fmt.Print("gsql> ")
			continue
		case strings.HasPrefix(line, `\mode`):
			switch strings.TrimSpace(strings.TrimPrefix(line, `\mode`)) {
			case "auto":
				mode = gsql.ModeAuto
			case "baseline":
				mode = gsql.ModeBaseline
			case "heuristic":
				mode = gsql.ModeHeuristic
			default:
				fmt.Println("modes: auto, baseline, heuristic")
			}
			eng = newEngine(mode)
			fmt.Print("gsql> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte(' ')
		if !strings.HasSuffix(line, ";") {
			fmt.Print("  ... ")
			continue
		}
		q := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
		buf.Reset()
		if q != "" {
			runQuery(eng, q)
		}
		fmt.Print("gsql> ")
	}
}

func runQuery(eng *gsql.Engine, q string) {
	trimmed := strings.TrimSpace(q)
	if len(trimmed) >= 7 && strings.EqualFold(trimmed[:7], "explain") {
		var text string
		var err error
		if rest := strings.TrimSpace(trimmed[7:]); len(rest) >= 7 && strings.EqualFold(rest[:7], "analyze") {
			text, err = eng.ExplainAnalyze(trimmed)
		} else {
			text, err = eng.Explain(trimmed)
		}
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Print(text)
		return
	}
	start := time.Now()
	out, err := eng.Query(q)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(out.String())
	fmt.Printf("(%d rows in %s)\n", out.Len(), elapsed.Round(time.Microsecond))
	for _, p := range eng.Plan {
		fmt.Println("  plan:", p)
	}
}

func printTables(env *expr.QueryEnv) {
	var names []string
	for n := range env.Cat.Relations {
		names = append(names, n)
	}
	sort.Strings(names)
	// One view for the listing (nil, and knowing no base, in real-data
	// mode without keyed tables).
	v := env.Cat.Mat.View()
	for _, n := range names {
		r := env.Cat.RelationIn(v, n)
		fmt.Printf("  %s (%d rows)", r.Schema, r.Len())
		if b := v.Base(n); b != nil {
			fmt.Printf("  AR=%v", b.AR())
		}
		fmt.Println()
	}
	fmt.Println("  graph: G")
}

// loadRealData builds a query environment from a TSV graph and CSV
// relations: trains models on the graph, runs HER with the similarity
// matcher, materialises every loaded table with the given AR keywords and
// profiles the graph's types for heuristic joins.
func loadRealData(graphPath string, tables tableFlags, keywordCSV string, epochs int, seed uint64, modelsPath string) (*expr.QueryEnv, error) {
	gf, err := os.Open(graphPath)
	if err != nil {
		return nil, err
	}
	defer gf.Close()
	g, _, err := dataio.LoadGraphTSV(gf)
	if err != nil {
		return nil, err
	}
	var models core.Models
	if modelsPath != "" {
		f, err := os.Open(modelsPath)
		if err != nil {
			return nil, err
		}
		models, err = core.LoadModels(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		fmt.Printf("graph: %d vertices, %d edges; models loaded from %s\n",
			g.NumVertices(), g.NumEdges(), modelsPath)
	} else {
		fmt.Printf("graph: %d vertices, %d edges; training models...\n", g.NumVertices(), g.NumEdges())
		models = core.TrainModels(g, epochs, seed)
	}

	var ar []string
	for _, kw := range strings.Split(keywordCSV, ",") {
		if kw = strings.TrimSpace(kw); kw != "" {
			ar = append(ar, kw)
		}
	}
	if len(ar) == 0 {
		// Fall back to profiled frequent labels across all types.
		for typ, toks := range core.FrequentLabels(g, 2) {
			if typ != "" {
				ar = append(ar, typ)
				_ = toks
			}
		}
		sort.Strings(ar)
		fmt.Printf("no -keywords given; profiled AR = %v\n", ar)
	}

	relations := map[string]*rel.Relation{}
	specs := map[string]core.BaseSpec{}
	matcher := her.NewSimilarityMatcher(her.Config{})
	for _, spec := range tables {
		eq := strings.IndexByte(spec, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad -table %q (want name=file.csv[:keycol])", spec)
		}
		name, rest := spec[:eq], spec[eq+1:]
		path, key := rest, ""
		if c := strings.LastIndexByte(rest, ':'); c > 1 { // after drive-letter-free paths
			path, key = rest[:c], rest[c+1:]
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		r, err := dataio.LoadRelationCSV(f, name, key)
		f.Close()
		if err != nil {
			return nil, err
		}
		relations[name] = r
		if key != "" && len(ar) > 0 {
			specs[name] = core.BaseSpec{D: r, AR: ar, Matcher: matcher}
		}
		fmt.Printf("table %s: %d rows (key %q)\n", name, r.Len(), key)
	}
	var mat *core.Materialized
	if len(specs) > 0 {
		fmt.Println("materialising f(D,G) and h(D,G)...")
		if mat, err = core.BuildMaterialized(g, models, specs, core.Config{Seed: seed, Obs: obs.Default}); err != nil {
			return nil, err
		}
	}
	kwByType := map[string][]string{}
	for _, typ := range g.Types() {
		if typ != "" && typ != "misc" {
			kwByType[typ] = ar
		}
	}
	profiles := core.ProfileGraph(g, models, kwByType, 4, core.Config{Seed: seed})

	cat := &gsql.Catalog{
		Relations: relations,
		Graphs:    map[string]*graph.Graph{"G": g},
		Models:    models,
		Matcher:   matcher,
		Mat:       mat,
		Heur:      core.NewHeuristicJoiner(profiles),
		K:         3,
		RExt:      core.Config{Seed: seed},
	}
	return &expr.QueryEnv{Cat: cat}, nil
}

// openDurableStores opens (or recovers) one WAL-backed store per
// materialized base under dir, reusing the gSQL OPEN statement so the
// catalog rebinding logic is identical to an interactive OPEN. Each
// store lives in its own subdirectory dir/<base>.
func openDurableStores(env *expr.QueryEnv, dir, fsync string, checkpointEvery int) error {
	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return err
	}
	if env.Cat.Mat == nil {
		return fmt.Errorf("-data-dir needs at least one materialized base (keyed table with keywords)")
	}
	env.Cat.DurableOpts = core.DurableOptions{
		Policy: policy, CheckpointEvery: checkpointEvery, Reg: obs.Default,
	}
	var names []string
	for n := range env.Cat.Relations {
		if env.Cat.Mat.Base(n) != nil {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-data-dir needs at least one materialized base (keyed table with keywords)")
	}
	sort.Strings(names)
	eng := gsql.NewEngine(env.Cat)
	for _, n := range names {
		out, err := eng.Query(fmt.Sprintf("OPEN %s %s", n, filepath.Join(dir, n)))
		if err != nil {
			return fmt.Errorf("opening %s: %w", n, err)
		}
		st := env.Cat.Durable.Get(n)
		info := st.WALInfo()
		fmt.Printf("durable %s: dir=%s snapshot_seq=%d replayed=%d records (fsync=%s)\n",
			n, st.Dir(), st.SnapshotSeq(), info.Records, fsync)
		if info.Truncated {
			fmt.Printf("durable %s: torn tail truncated during recovery\n", n)
		}
		_ = out
	}
	return nil
}

// persistModels writes the trained model pair to path.
func persistModels(path string, m core.Models) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return core.SaveModels(f, m)
}
