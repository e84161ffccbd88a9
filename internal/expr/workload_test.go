package expr

import (
	"slices"
	"testing"

	"semjoin/internal/gsql"
)

func TestWorkloadComposition(t *testing.T) {
	qs := Workload()
	if len(qs) != 36 {
		t.Fatalf("workload size = %d, want 36", len(qs))
	}
	counts := map[string]int{}
	perColl := map[string]int{}
	for _, q := range qs {
		perColl[q.Collection]++
		if q.Link {
			counts["link"]++
		} else {
			counts["enrichment"]++
		}
		if q.Dynamic {
			counts["dynamic"]++
		}
		if q.MultiJoin {
			counts["multi"]++
		}
		if q.Negation {
			counts["negation"]++
		}
		if q.Aggregation {
			counts["aggregation"]++
		}
		if !q.WellBehaved {
			counts["nonwb"]++
		}
	}
	for coll, n := range perColl {
		if n != 6 {
			t.Errorf("%s has %d queries, want 6", coll, n)
		}
	}
	// §V: 32 enrichment, 4 link, 4 dynamic, 10 multi-join, 17 negation,
	// 4 aggregation; 32 of 36 well-behaved.
	want := map[string]int{
		"enrichment": 32, "link": 4, "dynamic": 4, "multi": 10,
		"negation": 17, "aggregation": 4, "nonwb": 4,
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%s = %d, want %d", k, counts[k], n)
		}
	}
}

func TestWorkloadParsesAndAnalyzes(t *testing.T) {
	// Parse every query; the planner's well-behaved verdict must match
	// the tag. Verdicts need a catalog, so each collection gets a full
	// env at tiny scale (its models are trained: NewQueryEnv
	// materialises and profiles with them), shared with the other
	// workload tests; WellBehaved itself only inspects the catalog's
	// shape, not data.
	if testing.Short() {
		t.Skip("builds envs")
	}
	var colls []string
	for _, q := range Workload() {
		if !slices.Contains(colls, q.Collection) {
			colls = append(colls, q.Collection)
		}
	}
	for _, coll := range colls {
		coll := coll
		t.Run(coll, func(t *testing.T) {
			t.Parallel() // collections build their envs side by side
			for _, q := range byColl(Workload(), coll) {
				parsed, err := gsql.Parse(q.SQL)
				if err != nil {
					t.Errorf("%s does not parse: %v", q.ID, err)
					continue
				}
				got := sharedEnv(t, coll, 24, 7).Engine(gsql.ModeAuto).WellBehaved(parsed)
				if got != q.WellBehaved {
					t.Errorf("%s: WellBehaved = %v, tagged %v", q.ID, got, q.WellBehaved)
				}
			}
		})
	}
}

func TestWorkloadExecutesInAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, coll := range []string{"Drugs", "Paper"} {
		env := sharedEnv(t, coll, 24, 7)
		for _, q := range byColl(Workload(), coll) {
			for _, mode := range []gsql.Mode{gsql.ModeAuto, gsql.ModeBaseline} {
				out, err := env.Engine(mode).Query(q.SQL)
				if err != nil {
					t.Errorf("%s mode %d: %v", q.ID, mode, err)
					continue
				}
				_ = out
			}
		}
	}
}

func TestWorkloadExactVsHeuristicAgreeSomewhat(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	env := sharedEnv(t, "Movie", 24, 7)
	for _, q := range byColl(Workload(), "Movie") {
		if q.Link {
			continue // heuristic mode applies to enrichment joins
		}
		exact, err := env.Engine(gsql.ModeAuto).Query(q.SQL)
		if err != nil {
			t.Fatalf("%s exact: %v", q.ID, err)
		}
		heur, err := env.Engine(gsql.ModeHeuristic).Query(q.SQL)
		if err != nil {
			t.Fatalf("%s heuristic: %v", q.ID, err)
		}
		f := RowSetF(heur, exact)
		t.Logf("%s: heuristic F=%.2f (%d vs %d rows)", q.ID, f.F1, heur.Len(), exact.Len())
	}
}
