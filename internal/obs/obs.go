// Package obs is the engine-wide observability substrate: atomic
// counters and gauges, lock-striped histograms with quantile
// estimation, and per-query traces filed in recent and slow-query
// ring buffers — all on the standard library alone, so every layer of the engine can
// depend on it without pulling in anything.
//
// Recording is designed to be skippable: every method is safe on a
// nil receiver and does nothing, so call sites write
//
//	obs.FromContext(ctx).Counter("core_gl_hits_total").Inc()
//
// unconditionally and pay only a context lookup when no registry is
// installed. Metrics therefore stay out of the per-tuple hot path by
// construction — operators record aggregates at Open/Close boundaries,
// not per Next.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (no-op on a nil receiver).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value (no-op on a nil receiver).
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by delta (no-op on a nil receiver).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histStripes is the number of independently locked shards per
// histogram. Observations pick a stripe round-robin, so concurrent
// workers (the BFS fan-out, exchange sub-pipelines) rarely contend on
// one mutex.
const histStripes = 8

type histStripe struct {
	mu     sync.Mutex
	counts []uint64
	sum    float64
	n      uint64
}

// Histogram is a fixed-bucket lock-striped histogram. Bucket bounds
// are upper bounds in ascending order with an implicit +Inf bucket
// appended; quantiles are estimated by linear interpolation inside
// the bucket containing the target rank.
type Histogram struct {
	bounds  []float64
	next    atomic.Uint32
	stripes [histStripes]histStripe
}

// Observe records one sample (no-op on a nil receiver).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	s := &h.stripes[h.next.Add(1)%histStripes]
	s.mu.Lock()
	if s.counts == nil {
		s.counts = make([]uint64, len(h.bounds)+1)
	}
	s.counts[bucketIdx(h.bounds, v)]++
	s.sum += v
	s.n++
	s.mu.Unlock()
}

func bucketIdx(bounds []float64, v float64) int {
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// HistSnapshot is a merged point-in-time view of a histogram.
type HistSnapshot struct {
	Bounds []float64 // upper bounds, +Inf implied after the last
	Counts []uint64  // len(Bounds)+1, non-cumulative
	Sum    float64
	Count  uint64
}

// Snapshot merges the stripes (empty snapshot on a nil receiver).
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	out := HistSnapshot{Bounds: h.bounds, Counts: make([]uint64, len(h.bounds)+1)}
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		for j, c := range s.counts {
			out.Counts[j] += c
		}
		out.Sum += s.sum
		out.Count += s.n
		s.mu.Unlock()
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) of the recorded
// samples, interpolating linearly within the bucket that holds the
// target rank. Samples in the +Inf bucket report the last finite
// bound. Returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if float64(cum+c) >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := lo
			if i < len(s.Bounds) {
				hi = s.Bounds[i]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	if len(s.Bounds) > 0 {
		return s.Bounds[len(s.Bounds)-1]
	}
	return 0
}

// expBuckets returns n exponential upper bounds start, start*factor, ...
func expBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// TimeBuckets spans 1µs to ~8s doubling — the default for latency
// histograms (seconds).
var TimeBuckets = expBuckets(1e-6, 2, 24)

// SizeBuckets spans 1 to ~1M doubling — for cardinalities like BFS
// reach-set sizes or worker counts.
var SizeBuckets = expBuckets(1, 2, 21)

// Registry holds named metrics. Series are identified by a family
// name plus optional label pairs; the same (family, labels) always
// returns the same metric, so call sites need no caching. All methods
// are goroutine-safe and no-ops on a nil receiver.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	families map[string]string // family name -> counter|gauge|histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		families: map[string]string{},
	}
}

// Default is the process-wide registry: the engine and the debug
// endpoint use it unless a session installs its own.
var Default = NewRegistry()

// seriesKey renders family plus "k1, v1, k2, v2, ..." label pairs into
// the canonical series id, e.g. `rel_op_rows_total{op="scan"}`.
func seriesKey(family string, labels []string) string {
	if len(labels) == 0 {
		return family
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(labels[i+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the counter series for family
// and label pairs. Nil receiver returns nil (whose methods no-op).
func (r *Registry) Counter(family string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
		r.families[family] = "counter"
	}
	return c
}

// Gauge returns (creating if needed) the gauge series for family and
// label pairs. Nil receiver returns nil.
func (r *Registry) Gauge(family string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
		r.families[family] = "gauge"
	}
	return g
}

// Histogram returns (creating if needed) the histogram series for
// family and label pairs; buckets applies on first creation only (nil
// means TimeBuckets). Nil receiver returns nil.
func (r *Registry) Histogram(family string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(family, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		if buckets == nil {
			buckets = TimeBuckets
		}
		h = &Histogram{bounds: buckets}
		r.hists[key] = h
		r.families[family] = "histogram"
	}
	return h
}

// CounterValues returns every counter series value keyed by series id
// — the flat view the differential metrics-parity test compares.
func (r *Registry) CounterValues() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, c := range r.counters {
		out[k] = c.Value()
	}
	return out
}

// Snapshot flattens the whole registry into name -> value: counters
// and gauges directly, histograms exploded into _count, _sum, _p50,
// _p95 and _p99 pseudo-series. SHOW METRICS and the expvar export
// render this map.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	out := make(map[string]float64, len(counters)+len(gauges)+5*len(hists))
	for k, c := range counters {
		out[k] = float64(c.Value())
	}
	for k, g := range gauges {
		out[k] = float64(g.Value())
	}
	for k, h := range hists {
		s := h.Snapshot()
		out[k+"_count"] = float64(s.Count)
		out[k+"_sum"] = s.Sum
		out[k+"_p50"] = s.Quantile(0.50)
		out[k+"_p95"] = s.Quantile(0.95)
		out[k+"_p99"] = s.Quantile(0.99)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (one # TYPE line per family, series sorted).
func (r *Registry) WritePrometheus(b *strings.Builder) {
	if r == nil {
		return
	}
	r.mu.Lock()
	type series struct{ key, val string }
	byFamily := map[string][]series{}
	for k, c := range r.counters {
		f := familyOf(k)
		byFamily[f] = append(byFamily[f], series{k, strconv.FormatInt(c.Value(), 10)})
	}
	for k, g := range r.gauges {
		f := familyOf(k)
		byFamily[f] = append(byFamily[f], series{k, strconv.FormatInt(g.Value(), 10)})
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hists[k] = h
	}
	families := make([]string, 0, len(r.families))
	types := make(map[string]string, len(r.families))
	for f, t := range r.families {
		families = append(families, f)
		types[f] = t
	}
	r.mu.Unlock()

	sort.Strings(families)
	for _, f := range families {
		fmt.Fprintf(b, "# TYPE %s %s\n", f, types[f])
		if types[f] == "histogram" {
			keys := make([]string, 0)
			for k := range hists {
				if familyOf(k) == f {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				writeHistSeries(b, f, k, hists[k].Snapshot())
			}
			continue
		}
		ss := byFamily[f]
		sort.Slice(ss, func(i, j int) bool { return ss[i].key < ss[j].key })
		for _, s := range ss {
			fmt.Fprintf(b, "%s %s\n", s.key, s.val)
		}
	}
}

// familyOf strips the label suffix from a series id.
func familyOf(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// writeHistSeries renders one histogram series: cumulative _bucket
// lines, then _sum and _count, preserving any series labels.
func writeHistSeries(b *strings.Builder, family, key string, s HistSnapshot) {
	labels := ""
	if i := strings.IndexByte(key, '{'); i >= 0 {
		labels = strings.TrimSuffix(key[i+1:], "}")
	}
	withLE := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`%s_bucket{le="%s"}`, family, le)
		}
		return fmt.Sprintf(`%s_bucket{%s,le="%s"}`, family, labels, le)
	}
	suffix := func(sfx string) string {
		if labels == "" {
			return family + sfx
		}
		return family + sfx + "{" + labels + "}"
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = strconv.FormatFloat(s.Bounds[i], 'g', -1, 64)
		}
		fmt.Fprintf(b, "%s %d\n", withLE(le), cum)
	}
	fmt.Fprintf(b, "%s %s\n", suffix("_sum"), strconv.FormatFloat(s.Sum, 'g', -1, 64))
	fmt.Fprintf(b, "%s %d\n", suffix("_count"), s.Count)
}

// PrometheusText renders the registry as a string (see WritePrometheus).
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}
