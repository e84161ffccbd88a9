package gsql

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"semjoin/internal/rel"
)

var updateGolden = flag.Bool("update", false, "rewrite golden EXPLAIN files")

// redactExplain replaces the run-dependent parts of an EXPLAIN
// rendering (timings, worker counts, gL cache state) with stable
// placeholders so the operator tree can be golden-tested. It parses
// each plan line into fields rather than pattern-matching the text:
// notes may themselves contain ']' (e.g. "gL miss [cap=4]"), which a
// `\[gL [^\]]*\]` regex would split at the wrong bracket, leaving a
// dangling tail in the golden. Non-plan lines (the verdict, strategy
// notes) pass through untouched.
func redactExplain(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		l, ok := rel.ParsePlanLine(line)
		if !ok {
			continue
		}
		// The gL cache is engine-shared state, so hit/miss depends on
		// which test ran first; the goldens pin the plan shape, not the
		// cache temperature.
		gl := strings.HasPrefix(l.Note, "gL ")
		note := l.Note
		if gl {
			note = "gL <STATE>"
		}
		out := strings.Repeat("  ", l.Depth) + l.Label
		if note != "" {
			out += " [" + note + "]"
		}
		out += "  rows=" + strconv.FormatInt(l.Rows, 10) + " time=<T>"
		// Batch counts are deterministic (input size over batch size,
		// identical serial vs parallel by the one-batch-per-morsel
		// rule), so batch annotations stay in the golden verbatim.
		if l.Batches > 0 {
			out += " batches=" + strconv.FormatInt(l.Batches, 10) +
				" rows/batch=" + strconv.FormatInt(l.RowsPerBatch(), 10)
		}
		// A gL miss runs the BFS pool (workers= present), a hit serves
		// from cache (absent) — cache temperature decides the worker
		// annotation too, so it is dropped with the state.
		if l.Workers > 0 && !gl {
			out += " workers=<W>"
		}
		lines[i] = out
	}
	return strings.Join(lines, "\n")
}

func TestExplainGolden(t *testing.T) {
	f := getFintech(t)
	cases := []struct {
		name  string
		par   int
		query string
	}{
		{"select_order_limit", 2, `
			select pid, risk from product
			where price >= 100 order by pid limit 5`},
		{"select_serial", 1, `
			select pid, risk from product
			where price >= 100 order by pid limit 5`},
		{"aggregate_group", 2, `
			select risk, count(*) as n from product
			group by risk order by risk`},
		{"ejoin_static", 2, `
			select risk, company
			from product e-join G <company, country> as T
			where T.country = 'UK'`},
		{"ljoin_static", 2, `
			select customer.cid, customer2.cid
			from customer l-join <Gp> customer as customer2
			where customer.credit = 'fair'`},
		{"cross_join_distinct", 2, `
			select distinct c.credit
			from customer as c, product as p
			where c.bal >= 100000 and p.risk = 'high'`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(f.cat)
			e.Parallelism = tc.par
			text, err := e.Explain(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			got := redactExplain(text)
			path := filepath.Join("testdata", "explain_"+tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

func TestExplainGoldenRedaction(t *testing.T) {
	in := "l-join static [gL miss, populated]  rows=3 time=1.234ms workers=8\n" +
		"exchange  rows=10 time=57µs workers=4\n"
	got := redactExplain(in)
	for _, leak := range []string{"1.234ms", "57µs", "workers=8", "workers=4", "miss, populated"} {
		if strings.Contains(got, leak) {
			t.Fatalf("redaction leaked %q: %s", leak, got)
		}
	}
	if !strings.Contains(got, "[gL <STATE>]") || !strings.Contains(got, "workers=<W>") || !strings.Contains(got, "time=<T>") {
		t.Fatalf("placeholders missing: %s", got)
	}
	// Notes containing ']' must redact cleanly: the old regex matched
	// up to the FIRST ']', leaving a dangling "]" behind the placeholder.
	nested := "  l-join static [gL miss [cap=4]]  rows=3 time=9ms workers=2\n"
	got = redactExplain(nested)
	want := "  l-join static [gL <STATE>]  rows=3 time=<T>\n"
	if got != want {
		t.Fatalf("bracketed note redaction:\n got %q\nwant %q", got, want)
	}
	// Non-plan lines (verdict, strategy notes) pass through untouched,
	// even when they mention rows or brackets.
	passthrough := "well-behaved: true\nstrategy: l-join(Gp): well-behaved (gL key customer[x]|customer[y]|k=3)\n"
	if got := redactExplain(passthrough); got != passthrough {
		t.Fatalf("non-plan lines altered:\n got %q\nwant %q", got, passthrough)
	}
}

func TestSetParallelismStatement(t *testing.T) {
	f := getFintech(t)
	e := NewEngine(f.cat)
	out, err := e.Query(`set parallelism 3`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Parallelism != 3 || e.Par() != 3 {
		t.Fatalf("Parallelism = %d, Par = %d", e.Parallelism, e.Par())
	}
	if out.Len() != 1 || out.Get(out.Tuples[0], "parallelism").Int() != 3 {
		t.Fatalf("status relation = %v", out)
	}
	// DEFAULT restores the GOMAXPROCS default.
	if _, err := e.Query(`SET PARALLELISM DEFAULT`); err != nil {
		t.Fatal(err)
	}
	if e.Parallelism != 0 || e.Par() < 1 {
		t.Fatalf("reset failed: Parallelism=%d Par=%d", e.Parallelism, e.Par())
	}
	// Zero and negative degrees are rejected: there is no zero-worker
	// execution (0 used to silently mean "default", masking typos).
	for _, bad := range []string{`set parallelism`, `set parallelism 0`, `set parallelism -1`, `set parallelism x`, `set parallelism 2 3`} {
		if _, err := e.Query(bad); err == nil {
			t.Fatalf("%q should error", bad)
		}
	}
	// The statement changes the engine's plans: P=1 has no exchange, P>1 does.
	if _, err := e.Query(`set parallelism 1`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`select pid from product where price >= 100`); err != nil {
		t.Fatal(err)
	}
	serial := e.LastStats.String()
	if strings.Contains(serial, "exchange") {
		t.Fatalf("P=1 plan should not contain an exchange:\n%s", serial)
	}
	if _, err := e.Query(`set parallelism 4`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`select pid from product where price >= 100`); err != nil {
		t.Fatal(err)
	}
	par := e.LastStats.String()
	if !strings.Contains(par, "exchange") {
		t.Fatalf("P=4 plan should contain an exchange:\n%s", par)
	}
}
