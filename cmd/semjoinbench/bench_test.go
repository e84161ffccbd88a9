package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"semjoin/internal/dataset"
)

func testInputs(t *testing.T) genInputs {
	t.Helper()
	return newGenInputs(dataset.ByName(collection)(dataset.Config{Entities: 40, Seed: 3}))
}

// streamBytes renders the first n requests of a generator as the bytes
// that would go on the wire.
func streamBytes(t *testing.T, g generator, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		if err := enc.Encode(g.next().Wire); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// The same seed must give a byte-identical request stream for every
// generator a workload uses, and another seed a different one.
func TestRequestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	in := testInputs(t)
	scan := func(seed int64) generator {
		g, err := newScanGen(in, seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	makers := map[string]func(seed int64) generator{
		"read_point":          func(s int64) generator { return newPointGen(in, s) },
		"read_scan":           scan,
		"mixed_ingest writer": func(s int64) generator { return newIngestGen(in, uint64(s), 4, false) },
		"ingest_heavy writer": func(s int64) generator { return newIngestGen(in, uint64(s), 16, true) },
	}
	for name, mk := range makers {
		a, b, c := streamBytes(t, mk(11), 200), streamBytes(t, mk(11), 200), streamBytes(t, mk(12), 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different request streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds, identical request streams", name)
		}
	}
}

// One request in five of the point mix is the prepared statement, and
// every read carries the bound text its reference is computed from.
func TestPointMixShape(t *testing.T) {
	g := newPointGen(testInputs(t), 5)
	prepared := 0
	for i := 0; i < 1000; i++ {
		r := g.next()
		if r.Text == "" || strings.Contains(r.Text, "$1") {
			t.Fatalf("request %d has no bound text: %+v", i, r)
		}
		if r.Wire.Op == "exec" {
			prepared++
		}
	}
	if prepared != 200 {
		t.Errorf("prepared executions = %d of 1000, want 200", prepared)
	}
}

func TestZipfKeysStayInBoundsAndSkew(t *testing.T) {
	const n = 300
	z := newZipfKeys(rand.New(rand.NewSource(1)), n)
	counts := make([]int, n)
	for i := 0; i < 50000; i++ {
		k := z.next()
		if k < 0 || k >= n {
			t.Fatalf("draw %d out of [0,%d)", k, n)
		}
		counts[k]++
	}
	if counts[0] <= counts[n/2]*5 {
		t.Errorf("no skew: key 0 drawn %d times, key %d %d times", counts[0], n/2, counts[n/2])
	}
	tail := 0
	for _, c := range counts[256:] {
		tail += c
	}
	if tail == 0 {
		t.Error("no draw beyond the first 256 keys: the gL cache would never miss")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one = %v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the benchmark driver uses; the expected values were computed
// with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{2, 4, 8}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("latency 100 -> 110: worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("throughput 100 -> 90: worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "lower"); got >= 0 {
		t.Errorf("latency 100 -> 90 counted as worse: %v", got)
	}
}

// A hand-built trace: a 100 µs request whose children cover 70 µs of
// it, one child with a child of its own, one child overrunning its
// parent.
func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []*span{
		{ID: 1, Request: 1, Name: "read:x", Layer: "server", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Request: 1, Name: "gsql.query", Layer: "gsql", StartUS: 0, EndUS: 70},
		{ID: 3, Parent: 2, Request: 1, Name: "op:scan", Layer: "rel", StartUS: 0, EndUS: 30},
		{ID: 4, Parent: 2, Request: 1, Name: "op:l-join", Layer: "core", StartUS: 30, EndUS: 90}, // overruns its parent by 20
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 30, 2: 0, 3: 30, 4: 60}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	// Overlapping children are counted once.
	spans = []*span{
		{ID: 1, Name: "read:x", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, StartUS: 10, EndUS: 50},
		{ID: 3, Parent: 1, StartUS: 40, EndUS: 60},
	}
	if got := selfTimes(spans)[1]; got != 50 {
		t.Errorf("self time with overlapping children = %v, want 50", got)
	}
}

func TestTraceLaysChildrenEndToEndAndSharesAddUp(t *testing.T) {
	tr := newTrace()
	for req := 1; req <= 2; req++ {
		root := tr.root(req, "read:point", "server", tr.epoch, 100e3) // 100 µs
		q := tr.child(root, "gsql.query", "gsql", 60e3)
		tr.child(q, "op:scan", "rel", 20e3)
		tr.child(q, "op:l-join static", "core", 30e3)
	}
	wr := tr.root(3, "write:edges", "server", tr.epoch, 1000e3)
	tr.child(wr, "core.durable_apply", "core", 900e3)

	if a, b := tr.spans[2], tr.spans[3]; a.EndUS != b.StartUS {
		t.Errorf("siblings not end to end: %v then %v", a, b)
	}
	read, write := anatomyOf(tr.spans, "read:"), anatomyOf(tr.spans, "write:")
	if read.Requests != 2 || read.WallUS != 100 || read.SelfUS["server"] != 40 || read.SelfUS["gsql"] != 10 ||
		read.SelfUS["rel"] != 20 || read.SelfUS["core"] != 30 {
		t.Errorf("read anatomy = %+v", read)
	}
	// A window of 9 reads and 1 write: wall 9*100 + 1000 = 1900 µs.
	shares := layerShares(read, write, 9, 1)
	want := map[string]float64{
		"server": (9*40 + 100) / 19.0, "gsql": 9 * 10 / 19.0, "rel": 9 * 20 / 19.0, "core": (9*30 + 900) / 19.0,
	}
	total := 0.0
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", l, shares[l], w)
		}
		total += shares[l]
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares add up to %v%%", total)
	}
}

func TestDigestIgnoresRowOrderOnly(t *testing.T) {
	a := digestRows([][]string{{"x", "1"}, {"y", "2"}, {"y", "2"}})
	b := digestRows([][]string{{"y", "2"}, {"x", "1"}, {"y", "2"}})
	c := digestRows([][]string{{"x", "1"}, {"y", "2"}})
	d := digestRows([][]string{{"x1", ""}, {"y", "2"}, {"y", "2"}})
	if a != b {
		t.Error("row order changed the digest")
	}
	if a == c || a == d {
		t.Error("different bags share a digest")
	}
}

// Acked sequence numbers must be strictly increasing within a session;
// absorb is where a window and a tail learn that they were not.
func TestAbsorbChecksAckOrder(t *testing.T) {
	r := &windowResult{SeqsIncreasing: true}
	r.absorb(&sessionLog{seqs: []uint64{3, 4, 9}, ok: 3, updates: 12})
	if !r.SeqsIncreasing || r.MaxSeq != 9 || r.OK != 3 || r.Updates != 12 {
		t.Errorf("increasing acks: %+v", r)
	}
	r.absorb(&sessionLog{seqs: []uint64{10, 10}, ok: 2})
	if r.SeqsIncreasing || r.MaxSeq != 10 {
		t.Errorf("a repeated seq went unnoticed: %+v", r)
	}
}

// compare must call a regression a regression, and must refuse to call
// anything when the spread is wider than the bound.
func TestCompareVerdicts(t *testing.T) {
	mk := func(tput, p50, spreadP50 float64) *record {
		return &record{Schema: schemaVersion, Scale: fullScale, Seconds: 10, Sessions: 2, Workloads: []workloadRecord{{
			Name: "read_point",
			Summary: map[string]summary{
				"throughput_rps": {N: 10, Median: tput, Spread: 0.01, Bound: 0.15},
				"read_p50_ms":    {N: 10, Median: p50, Spread: spreadP50, Bound: 0.15},
			},
		}}}
	}
	var out bytes.Buffer
	if n := compare(&out, mk(1000, 1, 0.02), mk(990, 1.01, 0.02)); n != 0 {
		t.Errorf("noise-sized change: %d regressions\n%s", n, out.String())
	}
	out.Reset()
	if n := compare(&out, mk(1000, 1, 0.02), mk(700, 1, 0.02)); n != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("30%% throughput loss: %d regressions\n%s", n, out.String())
	}
	out.Reset()
	if n := compare(&out, mk(1000, 1, 0.4), mk(1000, 2, 0.02)); n != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("spread above bound must be unresolved, not a verdict: %d regressions\n%s", n, out.String())
	}
}

// BENCHMARK.json at the repository root is the driver's contract; it
// must name exactly the catalogue's workloads and metrics.
func TestBenchmarkJSONMatchesTheCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./cmd/semjoinbench"}) || !reflect.DeepEqual(bj.Paths, []string{"cmd/semjoinbench"}) {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, catalogue has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, catalogue %s: %s", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, catalogue has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d = %+v, catalogue %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, catalogue %v", kind, d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

// The smoke path: every workload, untraced and traced, at a tiny scale,
// through the same code the real runs take, down to the record, the
// span files, -compare and the driver's line.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	recPath := filepath.Join(dir, "smoke.json")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-smoke", "-seed", "5", "-workdir", dir,
		"-json", recPath, "-trace-out", filepath.Join(dir, "trace.json")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr.String(), stdout.String())
	}
	rec, err := readRecord(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Workloads) != len(workloads) || rec.Scale != 40 || rec.GoVersion == "" || rec.NumCPU == 0 {
		t.Fatalf("record header: %+v", rec)
	}
	for _, wr := range rec.Workloads {
		if len(wr.Runs) != 1 || wr.Traced == nil || wr.FS == "" || wr.Policy == "" {
			t.Fatalf("%s: incomplete record", wr.Name)
		}
		run := wr.Runs[0]
		if !run.Correct || run.Failed != 0 || run.Attempted == 0 {
			t.Errorf("%s: untraced run: %+v", wr.Name, run)
		}
		for _, d := range endToEnd {
			if m, ok := run.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", wr.Name, d.Name, m)
			}
		}
		if !wr.Traced.Correct {
			t.Errorf("%s: traced run incorrect: %v", wr.Name, wr.Traced.Notes)
		}
		for _, d := range perLayer {
			if _, ok := wr.Traced.Metrics[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Name, d.Name)
			}
		}
		total := 0.0
		for _, s := range wr.Traced.Shares {
			total += s
		}
		if math.Abs(total-100) > 0.5 {
			t.Errorf("%s: layer shares add up to %.2f%%: %v", wr.Name, total, wr.Traced.Shares)
		}
		var spans []span
		data, err := os.ReadFile(filepath.Join(dir, wr.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: span file: %v, %d spans", wr.Name, err, len(spans))
		}
	}
	// Write-side layers must carry the ingest workload, read-side the scan.
	shares := func(name string) map[string]float64 {
		for _, wr := range rec.Workloads {
			if wr.Name == name {
				return wr.Traced.Shares
			}
		}
		return nil
	}
	if s := shares("ingest_heavy"); s["core"]+s["wal"]+s["graph"] < 50 {
		t.Errorf("ingest_heavy: write-side layers carry %.1f%%: %v", s["core"]+s["wal"]+s["graph"], s)
	}

	var cmp bytes.Buffer
	if n := compare(&cmp, rec, rec); n != 0 {
		t.Errorf("a record regresses against itself:\n%s", cmp.String())
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".semjoinbench-*")); len(left) != 0 {
		t.Errorf("store directories left behind: %v", left)
	}

	// The driver's form: its flags parse, and the last line printed for
	// a run is the result object with exactly the contract's keys.
	c, err := parseFlags([]string{"--workload", "read_scan", "--seed", "6", "--seconds", "10", "--trace", "1"}, &stderr)
	if err != nil || c.workload != "read_scan" || c.opt.Seed != 6 || c.opt.Seconds != 10 || c.trace != 1 {
		t.Fatalf("driver flags: %+v, %v", c, err)
	}
	var lineBuf bytes.Buffer
	if err := driverLine(&lineBuf, rec.Workloads[0].Runs[0]); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(&lineBuf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("driver line: %v", err)
	}
	if line.Correct == nil || !*line.Correct || line.Failed == nil || line.Attempted < 1 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("driver line: %+v", line)
	}
	for name, m := range line.Metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("driver line: metric %s = %+v", name, m)
		}
	}
}
