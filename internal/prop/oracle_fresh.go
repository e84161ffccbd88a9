package prop

import (
	"fmt"
	"math/rand"
	"strings"

	"semjoin/internal/core"
	"semjoin/internal/gsql"
	"semjoin/internal/gsql/difftest"
	"semjoin/internal/obs"
	"semjoin/internal/rel"
	"semjoin/internal/wal"
)

// CheckFreshReads is oracle 7: what a query reads after an update must
// be derived from the state the update left. The product base is OPENed
// — and with it its domain, the graph and the customer base — as a
// WAL-backed store and the stream applied through it; after every
// step a seeded set of well-behaved queries — static e-join,
// id-recovery e-join, self and cross-base l-joins, with and without
// pushed-down predicates — runs three ways: as is (whatever the gL
// cache holds from earlier steps stays in place), again after
// ClearGLCache, and on a catalog materialised from scratch on the
// store's current (D, G) under the live extractors' schemes (as oracle
// 1 does: discovery is statistical, extraction under a fixed scheme is
// not). All three must be bag-equal. The queries are the same at every
// step on purpose: a connectivity set cached before a ΔG is only read
// again by the query that cached it.
func CheckFreshReads(seed int64, stream Stream) error {
	w := NewWorkload(seed)
	cat, eng, st, err := openProductStore(w)
	if err != nil {
		return err
	}
	defer st.Close()
	ePred, linkQueries := freshReadQueries(seed)

	drv := newStreamDriver(st, w)
	for i, s := range stream {
		if err := drv.step(i, s); err != nil {
			return err
		}
		// E-joins name the attributes this step's h(D,G) of each base still
		// carries: a keyword step may have dropped some of AR from the
		// scheme.
		queries := append(eJoinQueries(difftest.ExtractedEJoinAttrs(cat.Mat, "product"),
			difftest.ExtractedEJoinAttrs(cat.Mat, "customer"), ePred), linkQueries...)
		fresh, err := freshCatalog(w, cat)
		if err != nil {
			return fmt.Errorf("harness: step %d: materialise from scratch: %w", i, err)
		}
		freshEng := gsql.NewEngine(fresh)
		freshEng.Obs = obs.NewRegistry()

		warm := make([]*rel.Relation, len(queries))
		for qi, q := range queries {
			if warm[qi], err = eng.Query(q); err != nil {
				return fmt.Errorf("harness: step %d %q: %w", i, q, err)
			}
		}
		cat.Mat.ClearGLCache()
		for qi, q := range queries {
			cold, err := eng.Query(q)
			if err != nil {
				return fmt.Errorf("harness: step %d cache-cold %q: %w", i, q, err)
			}
			if d := difftest.Diff(warm[qi], cold); d != "" {
				return fmt.Errorf("after step %d (%s) %q answers differently once the gL cache is cleared: %s", i, s, q, d)
			}
			want, err := freshEng.Query(q)
			if err != nil {
				return fmt.Errorf("harness: step %d from-scratch %q: %w", i, q, err)
			}
			if d := difftest.Diff(warm[qi], want); d != "" {
				return fmt.Errorf("after step %d (%s) %q diverges from a materialisation built from scratch on the current (D, G): %s", i, s, q, d)
			}
		}
	}
	return nil
}

// openProductStore builds the workload's catalog and OPENs its product
// base — which opens the domain it belongs to, the graph and both bases —
// as a WAL-backed store on an in-memory filesystem.
func openProductStore(w *Workload) (*gsql.Catalog, *gsql.Engine, *core.DurableStore, error) {
	cat, err := w.Catalog()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("harness: catalog: %w", err)
	}
	cat.DurableOpts = core.DurableOptions{FS: wal.NewMemFS()}
	eng := gsql.NewEngine(cat)
	eng.Obs = obs.NewRegistry()
	if _, err := eng.Query("OPEN product db"); err != nil {
		return nil, nil, nil, fmt.Errorf("harness: OPEN product: %w", err)
	}
	return cat, eng, cat.Durable.Get("product"), nil
}

// freshReadQueries draws the seeded read mix of oracles 7 and 9: the
// predicate its e-joins filter on, and the link joins.
func freshReadQueries(seed int64) (ePred string, linkQueries []string) {
	rng := rand.New(rand.NewSource(seed ^ 0xf7e5))
	ePred, lPred := randProductPred(rng).SQL("T."), randProductPred(rng).SQL("product.")
	return ePred, []string{
		"select product.pid, product2.pid from product l-join <Gp> product as product2",
		"select product.pid, product2.pid from product l-join <Gp> product as product2 where " + lPred,
		"select customer.cid, customer2.cid from customer l-join <Gp> customer as customer2",
		"select product.pid, c2.cid from product l-join <G> customer as c2",
		"select product.pid, c2.cid from product l-join <G> customer as c2 where " + lPred,
	}
}

// eJoinQueries are the mix's enrichment joins over the attributes each
// base has extracted: on product static, static with a pushed predicate,
// and id recovery; on customer static. A base with none has no e-join.
func eJoinQueries(product, customer []string, ePred string) []string {
	var out []string
	if len(product) > 0 {
		a := strings.Join(product, ", ")
		out = append(out,
			fmt.Sprintf("select pid, vid, %s from product e-join G <%s> as T", a, a),
			fmt.Sprintf("select pid, vid, %s from product e-join G <%s> as T where %s", a, a, ePred),
			fmt.Sprintf("select pid, name, vid, %s from (select name, issuer from product) e-join G <%s> as T", a, a))
	}
	if len(customer) > 0 {
		a := strings.Join(customer, ", ")
		out = append(out, fmt.Sprintf("select cid, vid, %s from customer e-join G <%s> as T", a, a))
	}
	return out
}

// freshCatalog materialises both bases from scratch over live's current
// graph and relations — one view of them — each under the scheme live's
// extractor holds.
func freshCatalog(w *Workload, live *gsql.Catalog) (*gsql.Catalog, error) {
	v := live.Mat.View()
	g := v.G
	m, err := core.BuildMaterialized(g, w.Models, nil, w.Cfg)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"product", "customer"} {
		lb, d := v.Base(name), live.RelationIn(v, name)
		cfg := w.Cfg
		cfg.Keywords = lb.AR()
		cfg.MaxAttrs = len(lb.AR())
		ex := core.NewExtractor(g, w.Models, cfg)
		dg, err := ex.ExtractWithScheme(d, lb.Extractor.Scheme(), w.Matcher.Match(d, g))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		m.SetBase(name, &core.BaseMaterialization{
			Spec:      core.BaseSpec{D: d, AR: lb.AR(), Matcher: w.Matcher},
			Extractor: ex,
			Extracted: dg,
		})
	}
	return w.catalogOver(m, live.RelationIn(v, "product")), nil
}
