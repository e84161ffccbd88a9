package gsql

import (
	"context"
	"fmt"

	"semjoin/internal/core"
	"semjoin/internal/rel"
)

// openDurable handles OPEN <base> <dir>: it opens (creating or
// recovering) the write-ahead-logged store of the graph domain <base>
// belongs to — the materialisation's graph and every base over it, not
// <base> alone. A catalog has one such store, so a second OPEN is refused.
// Nothing in the catalog is rebound: queries resolve the bases, their
// reference relations (Catalog.Relation) and every graph name bound to
// the materialisation's graph (Catalog.Graph) through the version the
// store has published. The status relation has a row per base of the
// domain.
func (e *Engine) openDurable(ctx context.Context, args []string) (*rel.Relation, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("gsql: usage: OPEN <base> <dir>")
	}
	name, dir := args[0], args[1]
	cat := e.Cat
	if cat == nil || cat.Mat == nil || cat.Mat.Base(name) == nil {
		return nil, fmt.Errorf("gsql: OPEN %s: no materialized base by that name", name)
	}
	cfg := cat.RExt
	cfg.K = cat.K
	st, err := cat.Mat.OpenDurable(ctx, dir, core.DurableBoot{
		Models: cat.Models, Cfg: cfg, Matcher: cat.Matcher,
	}, cat.DurableOpts)
	if err != nil {
		return nil, err
	}
	if cat.Durable == nil {
		cat.Durable = core.NewDurableSet(cat.Mat)
	}
	info := st.WALInfo()
	out := rel.NewRelation(rel.NewSchema("status", "",
		rel.Attribute{Name: "base", Type: rel.KindString},
		rel.Attribute{Name: "dir", Type: rel.KindString},
		rel.Attribute{Name: "snapshot_seq", Type: rel.KindInt},
		rel.Attribute{Name: "wal_records", Type: rel.KindInt},
		rel.Attribute{Name: "truncated", Type: rel.KindString},
	))
	trunc := "false"
	if info.Truncated {
		trunc = "true"
	}
	for _, base := range st.Bases() {
		out.InsertVals(rel.S(base), rel.S(dir),
			rel.I(int64(st.SnapshotSeq())), rel.I(int64(info.Records)), rel.S(trunc))
	}
	return out, nil
}

// checkpointDurable handles CHECKPOINT [<base>]: it snapshots the open
// durable store — the domain <base>, when named, must belong to — and
// compacts its log. The status relation has a row per base of the
// domain.
func (e *Engine) checkpointDurable(ctx context.Context, args []string) (*rel.Relation, error) {
	if len(args) > 1 {
		return nil, fmt.Errorf("gsql: usage: CHECKPOINT [<base>]")
	}
	var st *core.DurableStore
	if e.Cat != nil {
		st = e.Cat.Durable.Store()
	}
	if st == nil {
		return nil, fmt.Errorf("gsql: no durable store open (use OPEN <base> <dir>)")
	}
	if len(args) == 1 && e.Cat.Durable.Get(args[0]) == nil {
		return nil, fmt.Errorf("gsql: CHECKPOINT %s: no such base in the open store's domain %v", args[0], st.Bases())
	}
	if err := st.Checkpoint(ctx); err != nil {
		return nil, err
	}
	out := rel.NewRelation(rel.NewSchema("status", "",
		rel.Attribute{Name: "base", Type: rel.KindString},
		rel.Attribute{Name: "snapshot_seq", Type: rel.KindInt},
	))
	for _, base := range st.Bases() {
		out.InsertVals(rel.S(base), rel.I(int64(st.SnapshotSeq())))
	}
	return out, nil
}
