package difftest_test

import (
	"slices"
	"strings"
	"testing"

	"semjoin/internal/gsql/difftest"
	"semjoin/internal/prop"
)

// vocabularies are the two fixtures' vocabularies: difftest's and
// internal/prop's (with the e-join attributes its product base extracts
// at most).
var vocabularies = map[string]difftest.Vocab{
	"difftest": difftest.Vocabulary,
	"prop":     prop.Vocabulary,
}

// TestGeneratorCoverage pins that the generator actually exercises
// every plan family and every construct over both fixtures'
// vocabularies — a regression here would silently hollow out every
// differential harness.
func TestGeneratorCoverage(t *testing.T) {
	markers := []string{
		"e-join", "T.", "l-join <Gp> product", "l-join <Gp> customer", "l-join <G> customer",
		"group by", "distinct", "order by", " asc", " desc", "limit",
		"customer as c, product as p", "select *", " and (", " or ", "not (",
		"like", "between", " in (", "type =", "type <>", "risk <>", "credit <>", "bal between",
		"count(*)", "sum(", "avg(", "min(", "max(",
		// An e-join filtering on an extension column it does not project.
		"select pid, company from product e-join G <company, country> as T where T.country = ",
	}
	for name, v := range vocabularies {
		t.Run(name, func(t *testing.T) {
			gen := difftest.NewGen(42, v)
			seen := map[string]int{}
			orderKeys := map[int]bool{}
			for i := 0; i < 400; i++ {
				q := gen.Query()
				for _, m := range markers {
					if strings.Contains(q, m) {
						seen[m]++
					}
				}
				if _, keys, ok := strings.Cut(q, " order by "); ok {
					keys, _, _ = strings.Cut(keys, " limit ")
					orderKeys[strings.Count(keys, ",")+1] = true
				}
			}
			for _, m := range markers {
				if seen[m] == 0 {
					t.Errorf("generator never emitted a query containing %q", m)
				}
			}
			for n := 1; n <= 3; n++ {
				if !orderKeys[n] {
					t.Errorf("generator never emitted an ORDER BY with %d keys", n)
				}
			}
		})
	}
}

// TestGeneratorDeterminism pins that one seed and one vocabulary always
// give the same query sequence — the replay contract of every harness
// that reports a failing seed — and that the vocabulary, not only the
// seed, shapes it.
func TestGeneratorDeterminism(t *testing.T) {
	seq := func(seed int64, v difftest.Vocab) []string {
		gen := difftest.NewGen(seed, v)
		out := make([]string, 200)
		for i := range out {
			out[i] = gen.Query()
		}
		return out
	}
	for name, v := range vocabularies {
		if a, b := seq(7, v), seq(7, v); !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different query sequences", name)
		}
	}
	if slices.Equal(seq(7, difftest.Vocabulary), seq(7, prop.Vocabulary)) {
		t.Error("the two vocabularies gave the same query sequence")
	}
}
