package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"semjoin/internal/gsql/difftest"
)

// wireBag canonicalizes a wire response into a comparable bag string:
// the column list plus the sorted multiset of row renderings.
func wireBag(resp Response) string {
	rows := make([]string, len(resp.Rows))
	for i, r := range resp.Rows {
		rows[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(rows)
	return strings.Join(resp.Columns, ",") + "\n" + strings.Join(rows, "\n")
}

// TestConcurrentSessionsMatchSerial is the wire-level concurrency
// oracle: a seeded query set is first run through one session
// serially, then through N concurrent sessions — with the sessions
// deliberately diverging on SET PARALLELISM / SET SLOW_QUERY_MS — and
// every concurrent result must be bag-equal to the serial one. Run
// under -race this covers the full stack: wire decode, admission,
// per-session engines, the shared catalog, and response encoding.
func TestConcurrentSessionsMatchSerial(t *testing.T) {
	const (
		sessions   = 8
		numQueries = 30
	)
	srv := newTestServer(t, 17, Limits{}, nil)

	gen := difftest.NewGen(17^0x5eed, difftest.Vocabulary)
	queries := make([]string, numQueries)
	for i := range queries {
		queries[i] = gen.Query()
	}

	// Serial reference: one session, parallelism 1.
	ref := dialPipe(t, srv)
	ref.mustRows("set parallelism 1")
	want := make([]string, len(queries))
	wantErr := make([]bool, len(queries))
	for i, q := range queries {
		resp := ref.query(q)
		if !resp.OK {
			if resp.Code != "error" {
				t.Fatalf("serial query %q: unexpected code %q (%s)", q, resp.Code, resp.Error)
			}
			wantErr[i] = true
			continue
		}
		want[i] = wireBag(resp)
	}

	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := dialPipe(t, srv)
			// Sessions diverge on their knobs; the results must not.
			c.mustRows(fmt.Sprintf("set parallelism %d", 1+w%4))
			if w%2 == 1 {
				c.mustRows("set slow_query_ms 1")
			}
			for k := 0; k < len(queries); k++ {
				i := (k + w) % len(queries)
				resp := c.query(queries[i])
				if wantErr[i] {
					if resp.OK {
						t.Errorf("worker %d query %q: serial errored, concurrent succeeded", w, queries[i])
					}
					continue
				}
				if !resp.OK {
					t.Errorf("worker %d query %q: %s (%s)", w, queries[i], resp.Error, resp.Code)
					continue
				}
				if got := wireBag(resp); got != want[i] {
					t.Errorf("worker %d query %q diverged from serial:\n got: %q\nwant: %q",
						w, queries[i], got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
