// Bulk ingestion: the OpIngest wire op applies update batches to a
// WAL-backed durable store while queries keep flowing on other
// sessions. Ingest requests pass the same admission controller as
// queries, so a loaded server sheds writes and reads by one policy.
package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"semjoin/internal/core"
	"semjoin/internal/graph"
	"semjoin/internal/rel"
)

// ingest admits and applies one OpIngest batch. The store's own lock
// orders concurrent writers; gSQL queries running through the engine
// read the version the store published before the batch and never see
// it half applied, nor wait for it.
func (ss *session) ingest(ctx context.Context, in inbound) Response {
	req := in.req
	release, err := ss.ctl.Admit(ctx)
	if err != nil {
		code := "error"
		if errors.Is(err, ErrServerBusy) {
			code = "busy"
		}
		ss.log.Warn("ingest shed", "reason", shedReason(err), "base", req.Base)
		return errResp(req.ID, code, err)
	}
	defer release()

	st := ss.durableStore(req.Base)
	if st == nil {
		return errResp(req.ID, "error",
			fmt.Errorf("server: no durable store %q (OPEN it first)", req.Base))
	}
	start := time.Now()
	if err := applyIngest(ctx, st, req); err != nil {
		ss.reg.Counter("server_ingest_errors_total").Inc()
		return errResp(req.ID, "error", err)
	}
	elapsed := time.Since(start)
	ss.reg.Counter("server_ingest_total").Inc()
	ss.reg.Histogram("server_ingest_seconds", nil).Observe(elapsed.Seconds())
	return Response{
		ID: req.ID, OK: true,
		Seq:       st.LastSeq(),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
}

// durableStore resolves an opened store by base name (nil-safe at
// every level: engines without a catalog simply have no stores).
func (ss *session) durableStore(base string) *core.DurableStore {
	if ss.eng == nil || ss.eng.Cat == nil {
		return nil
	}
	return ss.eng.Cat.Durable.Get(base)
}

// applyIngest decodes and applies one batch per req.Kind.
func applyIngest(ctx context.Context, st *core.DurableStore, req Request) error {
	switch req.Kind {
	case "graph":
		batch, err := decodeIngestBatch(req.Updates)
		if err != nil {
			return err
		}
		_, err = st.ApplyGraphUpdateContext(ctx, batch)
		return err
	case "relation":
		d, err := relationFromRows(st.Base().Spec.D.Schema, req.Rows)
		if err != nil {
			return err
		}
		_, err = st.ApplyRelationUpdateContext(ctx, d)
		return err
	case "keywords":
		if len(req.Keywords) == 0 {
			return fmt.Errorf("server: ingest kind %q needs keywords", req.Kind)
		}
		_, err := st.UpdateKeywordsContext(ctx, req.Keywords)
		return err
	default:
		return fmt.Errorf("server: unknown ingest kind %q (want graph, relation or keywords)", req.Kind)
	}
}

// decodeIngestBatch maps wire updates onto a graph.Batch.
func decodeIngestBatch(ups []IngestUpdate) (graph.Batch, error) {
	if len(ups) == 0 {
		return nil, fmt.Errorf("server: ingest kind \"graph\" needs updates")
	}
	batch := make(graph.Batch, 0, len(ups))
	for i, u := range ups {
		var op graph.UpdateOp
		switch u.Op {
		case "insert_edge":
			op = graph.InsertEdge
		case "delete_edge":
			op = graph.DeleteEdge
		case "insert_vertex":
			op = graph.InsertVertex
		case "delete_vertex":
			op = graph.DeleteVertex
		default:
			return nil, fmt.Errorf("server: update %d: unknown op %q", i, u.Op)
		}
		batch = append(batch, graph.Update{
			Op: op,
			Edge: graph.Edge{
				From:  graph.VertexID(u.From),
				Label: u.Label,
				To:    graph.VertexID(u.To),
			},
			Label: u.Label,
			Type:  u.Type,
		})
	}
	return batch, nil
}

// relationFromRows builds a replacement relation over the base's own
// schema, parsing each cell by its attribute kind. Row widths must
// match the schema exactly — a short row is a client bug, not data.
func relationFromRows(schema *rel.Schema, rows [][]string) (*rel.Relation, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("server: ingest kind \"relation\" needs rows")
	}
	out := rel.NewRelation(schema)
	for ri, row := range rows {
		if len(row) != len(schema.Attrs) {
			return nil, fmt.Errorf("server: row %d has %d values, schema %s has %d attributes",
				ri, len(row), schema.Name, len(schema.Attrs))
		}
		vals := make([]rel.Value, len(row))
		for ci, cell := range row {
			switch schema.Attrs[ci].Type {
			case rel.KindInt:
				n, err := strconv.ParseInt(cell, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("server: row %d, attribute %s: %w", ri, schema.Attrs[ci].Name, err)
				}
				vals[ci] = rel.I(n)
			case rel.KindFloat:
				f, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("server: row %d, attribute %s: %w", ri, schema.Attrs[ci].Name, err)
				}
				vals[ci] = rel.F(f)
			default:
				vals[ci] = rel.S(cell)
			}
		}
		out.InsertVals(vals...)
	}
	return out, nil
}
