package gsql

import (
	"strings"
	"testing"
	"time"
)

func TestEngineExplainEnrichmentJoin(t *testing.T) {
	f := getFintech(t)
	e := NewEngine(f.cat)
	text, err := e.Explain(`
		select risk, company
		from product e-join G <company, country> as T
		where T.pid = 'fd0' and T.country = 'UK'`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"well-behaved: true",
		"strategy: e-join(G): well-behaved, static over materialised h(D,G)",
		"rows=",
		"time=",
		"project",
		"select",
		"scan product",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain output missing %q:\n%s", want, text)
		}
	}
	// Every operator line carries a row count and the tree is indented.
	lines := strings.Split(strings.TrimSpace(text), "\n")
	opLines := 0
	for _, l := range lines {
		if strings.Contains(l, "rows=") {
			opLines++
		}
	}
	if opLines < 3 {
		t.Fatalf("expected an operator tree, got %d op lines:\n%s", opLines, text)
	}
}

func TestEngineExplainLinkJoin(t *testing.T) {
	f := getFintech(t)
	e := NewEngine(f.cat)
	text, err := e.Explain(`
		select customer.cid, customer2.cid
		from customer l-join <Gp> customer as customer2
		where customer.credit = 'fair'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "l-join") || !strings.Contains(text, "rows=") {
		t.Fatalf("explain output:\n%s", text)
	}
	// The static link join's operator note records the gL cache outcome.
	if !strings.Contains(text, "gL") {
		t.Fatalf("expected a gL cache note:\n%s", text)
	}
	// A second run must be served from the cache.
	text2, err := e.Explain(`
		select customer.cid, customer2.cid
		from customer l-join <Gp> customer as customer2
		where customer.credit = 'fair'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text2, "gL hit") {
		t.Fatalf("second run should hit the gL cache:\n%s", text2)
	}
}

func TestEngineLastStats(t *testing.T) {
	f := getFintech(t)
	e := NewEngine(f.cat)
	out, err := e.Query(`select cid from customer where credit = 'good'`)
	if err != nil {
		t.Fatal(err)
	}
	if e.LastStats == nil || len(e.LastStats.Lines) == 0 {
		t.Fatal("LastStats not populated")
	}
	root := e.LastStats.Lines[0]
	if root.Rows != int64(out.Len()) {
		t.Fatalf("root rows=%d, result rows=%d", root.Rows, out.Len())
	}
	if e.LastStats.TotalRows() < root.Rows {
		t.Fatal("TotalRows smaller than root rows")
	}
}

func TestEngineExplainRelationIncludesOperatorTree(t *testing.T) {
	f := getFintech(t)
	e := NewEngine(f.cat)
	out, err := e.Query(`explain select pid from product e-join G <company> as T`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tp := range out.Tuples {
		if strings.Contains(out.Get(tp, "note").Str(), "rows=") {
			found = true
		}
	}
	if !found {
		t.Fatalf("EXPLAIN relation lacks operator rows:\n%v", out)
	}
}

// TestOperatorElapsedIsInclusive pins OpStats.Elapsed as documented:
// every operator of an executed plan reports the time of its whole
// subtree, so it is positive and no less than its direct children's
// sum.
func TestOperatorElapsedIsInclusive(t *testing.T) {
	f := getFintech(t)
	for _, q := range []string{
		`select risk, company from product e-join G <company, country> as T where T.country = 'UK'`,
		`select customer.cid, customer2.cid from customer l-join <Gp> customer as customer2 where customer.credit = 'fair'`,
		`select risk, count(*) as n from product where price >= 70 group by risk order by risk desc`,
	} {
		for _, par := range []int{1, 2} {
			e := NewEngine(f.cat)
			e.Parallelism = par
			if _, err := e.Query(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			lines := e.LastStats.Lines
			for i, l := range lines {
				if l.Elapsed <= 0 {
					t.Errorf("par=%d %q: %q reports Elapsed = %v\n%s", par, q, l.Label, l.Elapsed, e.LastStats)
				}
				var below time.Duration
				for j := i + 1; j < len(lines) && lines[j].Depth > l.Depth; j++ {
					if lines[j].Depth == l.Depth+1 {
						below += lines[j].Elapsed
					}
				}
				if l.Elapsed < below {
					t.Errorf("par=%d %q: %q Elapsed %v < its children's %v\n%s", par, q, l.Label, l.Elapsed, below, e.LastStats)
				}
			}
		}
	}
}
