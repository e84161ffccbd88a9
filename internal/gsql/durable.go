package gsql

import (
	"context"
	"fmt"

	"semjoin/internal/core"
	"semjoin/internal/rel"
)

// openDurable handles OPEN <base> <dir>: it opens (creating or
// recovering) the write-ahead-logged store for a materialized base and
// attaches the base to it. Nothing in the catalog is rebound: queries
// resolve the base, its reference relation (Catalog.Relation) and every
// graph name bound to the materialisation's graph (Catalog.Graph)
// through the version the store has published.
func (e *Engine) openDurable(ctx context.Context, args []string) (*rel.Relation, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("gsql: usage: OPEN <base> <dir>")
	}
	name, dir := args[0], args[1]
	cat := e.Cat
	if cat == nil || cat.Mat == nil || cat.Mat.Base(name) == nil {
		return nil, fmt.Errorf("gsql: OPEN %s: no materialized base by that name", name)
	}
	if cat.Durable == nil {
		cat.Durable = core.NewDurableSet()
	}
	if cat.Durable.Get(name) != nil {
		return nil, fmt.Errorf("gsql: durable store %q already open", name)
	}
	cfg := cat.RExt
	cfg.K = cat.K
	st, err := core.OpenDurable(ctx, dir, core.DurableBoot{
		Base:   cat.Mat.Base(name),
		Models: cat.Models, Cfg: cfg, Matcher: cat.Matcher,
	}, cat.DurableOpts)
	if err != nil {
		return nil, err
	}
	if err := cat.Durable.Put(name, st); err != nil {
		st.Close()
		return nil, err
	}
	cat.Mat.Attach(name, st)
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
	out.InsertVals(rel.S(name), rel.S(dir),
		rel.I(int64(st.SnapshotSeq())), rel.I(int64(info.Records)), rel.S(trunc))
	return out, nil
}

// checkpointDurable handles CHECKPOINT [<base>]: it snapshots one
// named durable store — or all of them — and compacts their logs.
func (e *Engine) checkpointDurable(ctx context.Context, args []string) (*rel.Relation, error) {
	if len(args) > 1 {
		return nil, fmt.Errorf("gsql: usage: CHECKPOINT [<base>]")
	}
	cat := e.Cat
	if cat == nil || cat.Durable == nil || len(cat.Durable.Names()) == 0 {
		return nil, fmt.Errorf("gsql: no durable stores open (use OPEN <base> <dir>)")
	}
	name := ""
	if len(args) == 1 {
		name = args[0]
	}
	if err := cat.Durable.Checkpoint(ctx, name); err != nil {
		return nil, err
	}
	targets := cat.Durable.Names()
	if name != "" {
		targets = []string{name}
	}
	out := rel.NewRelation(rel.NewSchema("status", "",
		rel.Attribute{Name: "base", Type: rel.KindString},
		rel.Attribute{Name: "snapshot_seq", Type: rel.KindInt},
	))
	for _, n := range targets {
		out.InsertVals(rel.S(n), rel.I(int64(cat.Durable.Get(n).SnapshotSeq())))
	}
	return out, nil
}
