package gsql

import (
	"strings"
	"testing"

	"semjoin/internal/obs"
)

// TestErrorPathsLeaveEngineUsable drives the engine through the error
// surface — malformed join clauses, invalid SET values, EXPLAIN ANALYZE
// over failing queries — and asserts two things for every input: the
// engine returns an error (it must not panic), and the session is not
// poisoned: the same engine answers a normal query immediately after.
func TestErrorPathsLeaveEngineUsable(t *testing.T) {
	f := getFintech(t)
	e := NewEngine(f.cat)
	e.Obs = obs.NewRegistry()

	assertUsable := func(after string) {
		t.Helper()
		res, err := e.Query("select pid from product where price >= 100 order by pid limit 3")
		if err != nil {
			t.Fatalf("engine unusable after %q: %v", after, err)
		}
		if res == nil || res.Len() == 0 {
			t.Fatalf("engine returned no rows after %q", after)
		}
	}

	cases := []struct {
		name  string
		query string
	}{
		// Malformed e-join clauses: missing graph, missing keyword list,
		// unknown graph, unknown source relation, truncated alias.
		{"ejoin-no-graph", "select pid, company from product e-join <company> as T"},
		{"ejoin-no-keywords", "select pid from product e-join G as T"},
		{"ejoin-unknown-graph", "select pid, company from product e-join NOPE <company> as T"},
		{"ejoin-unknown-relation", "select pid, company from nope e-join G <company> as T"},
		{"ejoin-truncated", "select pid from product e-join"},
		{"ejoin-empty-keywords", "select pid from product e-join G <> as T"},
		// Malformed l-join clauses: missing right side, unknown graph,
		// bare l-join with no left relation.
		{"ljoin-no-right", "select product.pid from product l-join <G>"},
		{"ljoin-unknown-graph", "select product.pid, c.cid from product l-join <NOPE> customer as c"},
		{"ljoin-bare", "l-join <G> <G> <G>"},
		{"ljoin-missing-brackets", "select product.pid, c.cid from product l-join G customer as c"},
		// SET PARALLELISM rejects non-positive widths (DEFAULT is the way
		// to restore the runtime-chosen width).
		{"parallelism-zero", "set parallelism 0"},
		{"parallelism-negative", "set parallelism -4"},
		{"parallelism-garbage", "set parallelism lots"},
		// SET VECTORIZED left with the row engine: it is an unrecognised
		// statement like any other now.
		{"vectorized-off", "set vectorized off"},
		{"vectorized-on", "SET VECTORIZED ON"},
		// EXPLAIN ANALYZE executes the query, so a failing body must
		// surface its error through the analyze path without panicking.
		{"explain-analyze-unknown-relation", "explain analyze select pid from nope"},
		{"explain-analyze-unknown-column", "explain analyze select nope from product"},
		{"explain-analyze-bad-ejoin", "explain analyze select pid from product e-join NOPE <company> as T"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.Query(tc.query); err == nil {
				t.Fatalf("query %q succeeded, want error", tc.query)
			}
			assertUsable(tc.query)
		})
	}

	// A rejected SET must not have changed the session width: EXPLAIN
	// ANALYZE still runs with the default parallel plan.
	res, err := e.Query("explain analyze select pid, company from product e-join G <company> as T")
	if err != nil {
		t.Fatalf("well-formed e-join after error storm: %v", err)
	}
	found := false
	for _, tp := range res.Tuples {
		for _, v := range tp {
			if strings.Contains(v.String(), "e-join") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("explain analyze output lost the join operator:\n%v", res)
	}
}
