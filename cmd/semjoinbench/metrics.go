package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. The catalogue below is
// the single source of names: BENCHMARK.json, the README tables, the
// result record and -compare all use them, and a test keeps
// BENCHMARK.json in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is rejected; 0 for per-layer
	// metrics, which are reported and never gated.
	Bound float64
}

// endToEnd are the metrics a user of the server would see. Every
// workload reports every one of them, measured with tracing off; none
// is ever zero. (The issue's fail_ratio and lost_acks are zero on a
// healthy tree, so they are the failed count and the correct flag of a
// run, and ungated client.* metrics below.)
var endToEnd = []metricDef{
	// fixture build (generate, train, materialise, profile) + boot, OPEN,
	// first CHECKPOINT, connect, prepare and warm-up
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// OK responses per second over all sessions, reads and ingest acks
	// alike; median over the window's five slices
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	// median client-side latency of read requests; median over the window's five slices
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// 95th percentile client-side latency of read requests, median over the
	// window's five slices (p99 and max are ungated client.* metrics)
	{Name: "read_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// median ingest ack latency, durable to policy; open loop: timed from
	// the due time; read-only workloads: over the quiet tail
	{Name: "ingest_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// 95th percentile ingest ack latency
	{Name: "ingest_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	// graph updates acked per second while batches were being sent
	{Name: "updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// shutdown, then core.OpenDurable on the store: snapshot load + WAL
	// tail replay; median of the repeats that fit the budget
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25},
	// log + snapshot bytes on the store's FS at shutdown / updates acked.
	// Exact where the number of batches is fixed; on ingest_heavy the
	// snapshot is most of the bytes and the closed loop decides the
	// updates, so it moves with throughput there, hence the bound.
	{Name: "wal_bytes_per_update", Unit: "B", Better: "lower", Bound: 0.25},
	// runtime.MemStats.TotalAlloc delta over the window / requests
	{Name: "alloc_kb_per_req", Unit: "KB", Better: "lower", Bound: 0.10},
}

// perLayer are the metrics of single layers (layer = module name before
// the dot; client.* is the load generator's view, bench.* and proc.*
// the harness and the process). They come from the traced run. The
// README says which end-to-end metric each should move, on which
// workload.
var perLayer = []metricDef{
	{Name: "client.read_p99_ms", Unit: "ms", Better: "lower"},   // 99th percentile read latency; did not repeat within a tenth on the 2-core host
	{Name: "client.read_max_ms", Unit: "ms", Better: "lower"},   // slowest read
	{Name: "client.fail_ratio", Unit: "ratio", Better: "lower"}, // (errors + sheds + client timeouts + wrong results) / attempted
	{Name: "client.lost_acks", Unit: "count", Better: "lower"},  // acked seqs beyond the recovered store's last seq; must be 0

	{Name: "server.ping_rtt_us", Unit: "us", Better: "lower"},       // OpPing round trip, median
	{Name: "server.wire_self_us", Unit: "us", Better: "lower"},      // wire latency - in-process latency of the same request, median
	{Name: "server.admit_us", Unit: "us", Better: "lower"},          // Controller.Admit + release, mean
	{Name: "server.resp_bytes_per_req", Unit: "B", Better: "lower"}, // response line bytes / requests
	{Name: "server.shed_total", Unit: "count", Better: "lower"},     // admission sheds during the window
	{Name: "server.queued_total", Unit: "count", Better: "lower"},   // requests that waited for an admission slot

	{Name: "gsql.parse_us", Unit: "us", Better: "lower"},               // parse span of the in-process replay, median
	{Name: "gsql.plan_us", Unit: "us", Better: "lower"},                // plan span, median
	{Name: "gsql.execute_us", Unit: "us", Better: "lower"},             // execute span, median
	{Name: "gsql.rows_in_per_row_out", Unit: "ratio", Better: "lower"}, // scan rows / result rows over the replayed reads (Engine.LastStats)

	{Name: "rel.scan_filter_mrows_per_s", Unit: "Mrow/s", Better: "higher"}, // batch scan + filter over the probe relation
	{Name: "rel.hash_join_p1_ms", Unit: "ms", Better: "lower"},              // hash join, 1 worker
	{Name: "rel.hash_join_pN_ms", Unit: "ms", Better: "lower"},              // hash join, GOMAXPROCS workers
	{Name: "rel.sort_ms", Unit: "ms", Better: "lower"},                      // batch sort of the probe relation
	{Name: "rel.aggregate_ms", Unit: "ms", Better: "lower"},                 // batch group-by count
	{Name: "rel.cross_filter_ms", Unit: "ms", Better: "lower"},              // cross join then filter (the multi-join plan shape)
	{Name: "rel.colimage_rebuild_ms", Unit: "ms", Better: "lower"},          // first batch scan after an insert - warm scan

	{Name: "core.static_enrich_ms", Unit: "ms", Better: "lower"}, // StaticEnrichIter over the main relation, drained
	{Name: "core.link_cold_ms", Unit: "ms", Better: "lower"},     // whole-relation StaticLink, gL cleared
	{Name: "core.link_warm_ms", Unit: "ms", Better: "lower"},     // the same link join served from gL
	{Name: "core.link_pN_ms", Unit: "ms", Better: "lower"},       // cold link join with GOMAXPROCS BFS workers
	{Name: "core.gl_hit_ratio", Unit: "ratio", Better: "higher"}, // gL hits / (hits + misses) during the window
	{Name: "core.gl_evictions", Unit: "count", Better: "lower"},  // gL evictions during the window

	{Name: "core.encode_us", Unit: "us", Better: "lower"},                        // EncodeGraphUpdate, median
	{Name: "core.incext_apply_ms", Unit: "ms", Better: "lower"},                  // Extractor.ApplyGraphUpdate on a scratch copy, median
	{Name: "core.incext_reextracted_per_update", Unit: "count", Better: "lower"}, // IncStats.Affected / updates
	{Name: "core.incext_vs_rext_ratio", Unit: "ratio", Better: "higher"},         // fresh RExt time / IncExt time per batch (the Fig 5(h) quantity at this batch size)
	{Name: "core.durable_self_us", Unit: "us", Better: "lower"},                  // DurableStore.ApplyGraphUpdate - encode - append - incext, median
	{Name: "core.checkpoint_ms", Unit: "ms", Better: "lower"},                    // CHECKPOINT statement in set-up
	{Name: "core.snapshot_bytes", Unit: "B", Better: "lower"},                    // newest snapshot file size
	{Name: "core.replay_ms_per_record", Unit: "ms", Better: "lower"},             // wal_replay span of OpenDurable / records replayed
	{Name: "core.reader_stall_ms", Unit: "ms", Better: "lower"},                  // mean latency of the slowest reads, one per reader per batch acked, - the quiet read p50
	{Name: "core.discover_s", Unit: "s", Better: "lower"},                        // RExt phase I in the fixture build
	{Name: "core.extract_s", Unit: "s", Better: "lower"},                         // RExt phase II (Algorithm 1)
	{Name: "core.profile_s", Unit: "s", Better: "lower"},                         // ProfileGraph over the fixture's graph, as NewQueryEnv calls it
	{Name: "core.extract_f1", Unit: "ratio", Better: "higher"},                   // mean F1 of the materialised extraction against the dropped columns

	{Name: "her.match_ms", Unit: "ms", Better: "lower"},              // SimilarityMatcher over the main relation
	{Name: "her.f1", Unit: "ratio", Better: "higher"},                // its matches against the ground-truth alignment
	{Name: "graph.apply_us_per_update", Unit: "us", Better: "lower"}, // Batch.Apply on a clone / updates

	{Name: "wal.append_us", Unit: "us", Better: "lower"},       // Log.Append on a scratch log of the workload's FS and policy, median
	{Name: "wal.sync_ms", Unit: "ms", Better: "lower"},         // Log.Sync after the appends
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},       // fsyncs of the live store's log during the window
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower"}, // log segment bytes / records
	{Name: "wal.segments", Unit: "count", Better: "lower"},     // log segments on the FS at shutdown
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},      // wal_open span of OpenDurable

	{Name: "nn.train_s", Unit: "s", Better: "lower"},             // LSTM training, one epoch
	{Name: "embed.train_s", Unit: "s", Better: "lower"},          // walk corpus + GloVe + type channel
	{Name: "cluster.kmeans_ms", Unit: "ms", Better: "lower"},     // KMC share of RExt discovery
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"}, // in-process query latency, tracer rate 1.0 vs 0, same warmed reads, order alternating

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},   // wire p50 of the traced replay vs the same requests sent quietly from the same cache state
	{Name: "bench.gen_lag_ms", Unit: "ms", Better: "lower"},          // open-loop writer: mean lateness of a send against its due time
	{Name: "proc.peak_heap_mb", Unit: "MB", Better: "lower"},         // largest HeapInuse sampled
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},    // GC pause total over the window
	{Name: "proc.goroutines_leaked", Unit: "count", Better: "lower"}, // goroutines above the pre-boot count after shutdown
}

// measurement is one reported value.
type measurement struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// percentile reads the p-quantile (0 < p <= 1) off an ascending slice
// by nearest rank: the smallest value with at least p of the samples at
// or below it. Zero for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value (mean of the two middle values for an
// even count); zero for an empty slice.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the driver computes spreads from. Fewer than two values give
// the value itself twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// k-th of 4 cut points: position k*(n+1)/4, 1-based, clamped.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4 // recomputed after the clamp, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure a bound is judged against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// worseBy is how much b is worse than a as a share of a, signed: a
// positive value is a regression in the metric's direction.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
