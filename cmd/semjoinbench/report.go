package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
)

// schemaVersion of the result record; bump when a field changes meaning.
const schemaVersion = 1

// record is the JSON result of a full run (-json): enough to reproduce
// a number and to compare two commits with -compare.
type record struct {
	Schema     int              `json:"schema"`
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       uint64           `json:"seed"`
	Scale      int              `json:"scale"`
	Seconds    float64          `json:"seconds"`
	Sessions   int              `json:"sessions"`
	Workloads  []workloadRecord `json:"workloads"`
}

// workloadRecord is one workload's runs: one per repeat, each with its
// own seed, plus the traced run of the first seed.
type workloadRecord struct {
	Name   string       `json:"name"`
	FS     string       `json:"fs"`
	Policy string       `json:"flush_policy"`
	Runs   []*runResult `json:"runs"`
	Traced *runResult   `json:"traced,omitempty"`
	// Summary is per end-to-end metric over Runs.
	Summary map[string]summary `json:"summary"`
}

// summary is a metric's distribution over repeated runs. Spread is the
// interquartile distance as a share of the median: the measured
// run-to-run noise its bound is judged against.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
}

func newRecord(opt options) *record {
	return &record{
		Schema: schemaVersion, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opt.Seed, Scale: opt.Scale, Seconds: opt.Seconds, Sessions: opt.Sessions,
	}
}

// commit is the VCS revision stamped into the binary, when there is one
// (go run in a checkout that is not a repository has none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// summarise fills the workload's per-metric distribution.
func (wr *workloadRecord) summarise() {
	wr.Summary = map[string]summary{}
	for _, d := range endToEnd {
		var xs []float64
		for _, r := range wr.Runs {
			if m, ok := r.Metrics[d.Name]; ok {
				xs = append(xs, m.Value)
			}
		}
		if len(xs) == 0 {
			continue
		}
		q1, q3 := quartiles(xs)
		wr.Summary[d.Name] = summary{N: len(xs), Median: median(xs), Q1: q1, Q3: q3, Spread: spread(xs), Bound: d.Bound}
	}
}

// driverLine prints the one JSON object the benchmark driver reads from
// the last line of standard output.
func driverLine(out io.Writer, r *runResult) error {
	metrics := map[string]map[string]any{}
	for name, m := range r.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// printRun lists every metric of a run by name with its unit,
// direction, sample count and bound, then the layer-share table of a
// traced run and the notes.
func printRun(out io.Writer, r *runResult) {
	kind, defs := "end-to-end (tracing off)", endToEnd
	if r.Traced {
		kind, defs = "per-layer (traced run)", perLayer
	}
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(out, "\n== %s  seed %d  %s: %s, %d attempted, %d failed\n",
		r.Workload, r.Seed, kind, verdict, r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tsamples\tbound")
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%d\t%s\n", d.Name, m.Value, m.Unit, d.Better, m.Samples, bound)
	}
	tw.Flush()
	if len(r.Shares) > 0 {
		fmt.Fprintln(out, "layer share of request wall time (self time = span - children):")
		for _, l := range sortedKeys(r.Shares) {
			fmt.Fprintf(out, "  %-8s %6.2f%%\n", l, r.Shares[l])
		}
	}
	if len(r.Families) > 0 {
		fmt.Fprintln(out, "traced replay by family (medians, us):")
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  family\trequests\twire\tparse\tplan\texecute\tdurable apply")
		for _, f := range r.Families {
			fmt.Fprintf(tw, "  %s\t%d\t%.0f\t%.1f\t%.1f\t%.0f\t%.0f\n",
				f.Family, f.Requests, f.WireUS, f.ParseUS, f.PlanUS, f.ExecuteUS, f.ApplyUS)
		}
		tw.Flush()
	}
	for _, n := range r.Notes {
		fmt.Fprintln(out, "  note:", n)
	}
}

// printSummary shows repeated runs: median, quartiles and spread of
// every end-to-end metric against its bound. A spread above the bound
// means the metric cannot resolve a change of the bound's size here.
func printSummary(out io.Writer, rec *record) {
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nworkload\tmetric\tn\tmedian\tq1\tq3\tspread\tbound\t")
	for _, wr := range rec.Workloads {
		for _, d := range endToEnd {
			s, ok := wr.Summary[d.Name]
			if !ok {
				continue
			}
			flag := ""
			if s.N > 1 && s.Spread > s.Bound {
				flag = "spread exceeds bound"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t%s\n",
				wr.Name, d.Name, s.N, s.Median, s.Q1, s.Q3, s.Spread*100, s.Bound*100, flag)
		}
	}
	tw.Flush()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this program reads %d", path, rec.Schema, schemaVersion)
	}
	return &rec, nil
}

func writeRecord(path string, rec *record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare prints, workload by workload, every end-to-end metric of two
// records (a = parent, b = change) and returns the number of
// regressions beyond bound. A pairing whose run-to-run spread on either
// side exceeds the bound is reported as unresolved, never as unchanged:
// the benchmark cannot tell there.
func compare(out io.Writer, a, b *record) (regressions int) {
	if a.Scale != b.Scale || a.Seconds != b.Seconds || a.Sessions != b.Sessions {
		fmt.Fprintf(out, "warning: settings differ (scale %d/%d, seconds %g/%g, sessions %d/%d); the comparison is not like for like\n",
			a.Scale, b.Scale, a.Seconds, b.Seconds, a.Sessions, b.Sessions)
	}
	byName := map[string]workloadRecord{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tdelta\tbound\tspread a/b\tverdict\t")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t(missing from the second record)\t\t\t\t\t\t\t\n", wa.Name)
			continue
		}
		for _, d := range endToEnd {
			sa, oka := wa.Summary[d.Name]
			sb, okb := wb.Summary[d.Name]
			if !oka || !okb {
				continue
			}
			worse := worseBy(sa.Median, sb.Median, d.Better)
			verdict := "within bound"
			switch {
			case sa.Spread > d.Bound || sb.Spread > d.Bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			case -worse > max(sa.Spread, sb.Spread, d.Bound/3):
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%/%.1f%%\t%s\t\n",
				wa.Name, d.Name, sa.Median, sb.Median, worseBy(sa.Median, sb.Median, "lower")*100,
				d.Bound*100, sa.Spread*100, sb.Spread*100, verdict)
		}
	}
	tw.Flush()
	return regressions
}

// usageText is the command's help.
var usageText = strings.TrimSpace(`
semjoinbench: one harness, four workloads, end-to-end and per-layer metrics.

  go run ./cmd/semjoinbench [-seed 7]              every workload: untraced run, then traced run
  go run ./cmd/semjoinbench -workload W -trace 0   one untraced run (the benchmark driver's form)
  go run ./cmd/semjoinbench -workload W -trace 1   one traced run: per-layer metrics, trace.json
  go run ./cmd/semjoinbench -repeat N -json r.json N runs per workload (seeds seed..seed+N-1), spreads
  go run ./cmd/semjoinbench -compare a.json b.json exit 1 on a regression beyond bound
  go run ./cmd/semjoinbench -smoke                 tiny scale, one-second windows
`)
