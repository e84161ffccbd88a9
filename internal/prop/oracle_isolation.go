package prop

import (
	"fmt"
	"sync"

	"semjoin/internal/gsql"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// isolationReaders is the number of engines reading beside the writer.
const isolationReaders = 3

// CheckSnapshotIsolation is oracle 9: a query that runs while updates
// commit reads one WAL prefix, whole. The stream is first replayed
// serially through one store, and after every step (and before the
// first) the seeded read mix of oracle 7 is answered on a catalog
// materialised from scratch on that prefix's (D, G): the reference for
// sequence number k. Then a second store of the same seed takes the
// stream from a writer goroutine while engines run the mix
// concurrently. Each result is tagged with the version it read
// (Engine.LastVersionSeq) and with the store's version just before and
// just after the query; the tag must lie between the two, and the
// result must be bag-equal to the reference for exactly that tag — not
// to a neighbour's, and not to a mixture such as the graph of one prefix
// under the extracted relation of another. The writer waits for a round
// of reads between steps, so that every prefix is read and every apply
// is read across. Odd seeds open an idle customer store after the
// product store, over the same working graph: the graph a query reads
// must still be the one the product store's updates went into, and the
// customer store's log, being empty, adds nothing to the tag.
func CheckSnapshotIsolation(seed int64, stream Stream) error {
	queries, want, err := isolationReference(seed, stream)
	if err != nil {
		return err
	}

	w := NewWorkload(seed)
	var alsoOpen []string
	if seed%2 != 0 {
		alsoOpen = []string{"customer"}
	}
	cat, _, st, err := openProductStore(w, alsoOpen...)
	if err != nil {
		return err
	}
	defer cat.Durable.Close()

	// round counts completed passes over the mix, all readers together;
	// the writer applies a step once it has moved by a pass per reader.
	var (
		mu      sync.Mutex
		moved   = sync.NewCond(&mu)
		round   int
		written bool // the writer has finished (or failed)
		failure error
	)
	fail := func(err error) {
		mu.Lock()
		if failure == nil {
			failure = err
		}
		written = true
		mu.Unlock()
		moved.Broadcast()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		drv := newStreamDriver(st, w)
		for i, s := range stream {
			mu.Lock()
			for target := round + isolationReaders; round < target && failure == nil; {
				moved.Wait()
			}
			stop := failure != nil
			mu.Unlock()
			if stop {
				return
			}
			if err := drv.step(i, s); err != nil {
				fail(err)
				return
			}
		}
		mu.Lock()
		written = true
		mu.Unlock()
	}()
	for r := 0; r < isolationReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eng := gsql.NewEngine(cat)
			eng.Parallelism = 1 + r%2
			eng.Obs = obs.NewRegistry()
			for last := false; !last; {
				mu.Lock()
				last = written // one more pass once the last step is in: the final prefix is read too
				stop := failure != nil
				mu.Unlock()
				if stop {
					return
				}
				for k := range queries {
					qi := (k + r) % len(queries)
					before := st.Version().Seq
					out, err := eng.Query(queries[qi])
					after := st.Version().Seq
					if err != nil {
						fail(fmt.Errorf("harness: reader %d %q: %w", r, queries[qi], err))
						return
					}
					read := eng.LastVersionSeq
					if read < before || read > after {
						fail(fmt.Errorf("reader %d %q read version %d, but the store was at %d before the query and %d after",
							r, queries[qi], read, before, after))
						return
					}
					if d := difftest.Diff(out, want[read][qi]); d != "" {
						fail(fmt.Errorf("reader %d %q at version %d (of %d) diverges from a materialisation built from scratch on that prefix: %s",
							r, queries[qi], read, len(stream), d))
						return
					}
				}
				mu.Lock()
				round++
				mu.Unlock()
				moved.Broadcast()
			}
		}(r)
	}
	wg.Wait()
	return failure
}

// isolationReference replays stream serially and returns the read mix
// and, per prefix length k (= the WAL sequence number after k steps),
// the mix's results on a from-scratch materialisation of that prefix.
// The mix's e-joins name only attributes every prefix extracted, so one
// query list serves all versions.
func isolationReference(seed int64, stream Stream) (queries []string, want [][]*rel.Relation, err error) {
	w := NewWorkload(seed)
	cat, _, st, err := openProductStore(w)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	ePred, queries := freshReadQueries(seed)

	prefixes := make([]*gsql.Catalog, 0, len(stream)+1)
	attrs := extractedEJoinAttrs(cat.Mat)
	drv := newStreamDriver(st, w)
	for k := 0; ; k++ {
		fresh, err := freshCatalog(w, cat)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: prefix %d: materialise from scratch: %w", k, err)
		}
		prefixes = append(prefixes, fresh)
		attrs = intersect(attrs, extractedEJoinAttrs(cat.Mat))
		if k == len(stream) {
			break
		}
		if err := drv.step(k, stream[k]); err != nil {
			return nil, nil, err
		}
	}
	if len(attrs) > 0 {
		queries = append(eJoinQueries(attrs, ePred), queries...)
	}
	for k, fresh := range prefixes {
		eng := gsql.NewEngine(fresh)
		eng.Obs = obs.NewRegistry()
		row := make([]*rel.Relation, len(queries))
		for qi, q := range queries {
			if row[qi], err = eng.Query(q); err != nil {
				return nil, nil, fmt.Errorf("harness: prefix %d from-scratch %q: %w", k, q, err)
			}
		}
		want = append(want, row)
	}
	return queries, want, nil
}

// intersect keeps the elements of a that b also has, in a's order.
func intersect(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}
