package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one benchmark-side span: a call into a layer's public
// function made while replaying a request, or a region the engine
// itself reports through its public LastTrace / LastStats.
//
// A child span is a replay of part of its parent's work, run after the
// parent finished; it is recorded laid end to end inside the parent's
// interval (first child at the parent's start), so the file reads as a
// flame graph and "the part of the parent's interval its children
// cover" is well defined.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a request's root span
	Request int     `json:"request"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	StartUS float64 `json:"start_us"` // since the trace epoch
	EndUS   float64 `json:"end_us"`
	// MeasuredUS is the duration as measured. It exceeds EndUS-StartUS
	// when the replay ran longer than what was left of the parent's
	// interval (timer noise, or work the parent overlapped across
	// workers): the recorded interval is clipped to the parent, so the
	// self times of a request add up to its wall time exactly.
	MeasuredUS float64 `json:"measured_us"`

	cursor float64 // where the next child starts
}

func (s *span) durUS() float64 { return s.EndUS - s.StartUS }

// trace collects spans in memory; write puts them on disk at the end.
type trace struct {
	epoch time.Time
	spans []*span
}

func newTrace() *trace { return &trace{epoch: time.Now()} }

// root opens a request's root span at its real start time.
func (t *trace) root(request int, name, layer string, start time.Time, d time.Duration) *span {
	s := &span{ID: len(t.spans) + 1, Request: request, Name: name, Layer: layer,
		StartUS: us(start.Sub(t.epoch))}
	s.EndUS = s.StartUS + us(d)
	s.MeasuredUS = us(d)
	s.cursor = s.StartUS
	t.spans = append(t.spans, s)
	return s
}

// child records a replayed part of parent's work, after its siblings.
func (t *trace) child(parent *span, name, layer string, d time.Duration) *span {
	s := &span{ID: len(t.spans) + 1, Parent: parent.ID, Request: parent.Request, Name: name, Layer: layer,
		StartUS: parent.cursor}
	s.MeasuredUS = us(d)
	s.EndUS = s.StartUS + s.MeasuredUS
	if s.EndUS > parent.EndUS {
		s.EndUS = parent.EndUS
	}
	s.cursor = s.StartUS
	parent.cursor = s.EndUS
	t.spans = append(t.spans, s)
	return s
}

// write stores the spans as JSON.
func (t *trace) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in microseconds: its
// duration minus the part of its interval that its child spans cover
// (children clipped to the parent, overlaps counted once).
func selfTimes(spans []*span) map[int]float64 {
	children := map[int][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, edge := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := k.StartUS, k.EndUS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndUS {
				hi = s.EndUS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.durUS() - covered
	}
	return self
}

// anatomy is the mean decomposition of one kind of request: its wall
// time and the self time each layer's own code took of it.
type anatomy struct {
	Requests int
	WallUS   float64            // mean root span duration
	SelfUS   map[string]float64 // layer -> mean self time per request
}

// anatomyOf averages the requests whose root span name has the given
// prefix.
func anatomyOf(spans []*span, rootPrefix string) anatomy {
	a := anatomy{SelfUS: map[string]float64{}}
	self := selfTimes(spans)
	want := map[int]bool{}
	for _, s := range spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, rootPrefix) {
			want[s.Request] = true
			a.Requests++
			a.WallUS += s.durUS()
		}
	}
	if a.Requests == 0 {
		return a
	}
	for _, s := range spans {
		if want[s.Request] {
			a.SelfUS[s.Layer] += self[s.ID]
		}
	}
	n := float64(a.Requests)
	a.WallUS /= n
	for l := range a.SelfUS {
		a.SelfUS[l] /= n
	}
	return a
}

// familyRow is the traced replay's view of one query family (or of the
// write batches): medians over its replayed requests, microseconds.
type familyRow struct {
	Family    string  `json:"family"`
	Requests  int     `json:"requests"`
	WireUS    float64 `json:"wire_us"`
	ParseUS   float64 `json:"parse_us,omitempty"`
	PlanUS    float64 `json:"plan_us,omitempty"`
	ExecuteUS float64 `json:"execute_us,omitempty"`
	ApplyUS   float64 `json:"durable_apply_us,omitempty"`
}

// familyRows breaks the trace down by the family its root spans name.
func familyRows(spans []*span) []familyRow {
	family := map[int]string{} // request -> family
	byFamily := map[string]map[string][]float64{}
	for _, s := range spans {
		name := s.Name
		if s.Parent == 0 {
			family[s.Request] = s.Name
			name = "wire"
		}
		f := family[s.Request] // a root precedes its subtree
		if byFamily[f] == nil {
			byFamily[f] = map[string][]float64{}
		}
		byFamily[f][name] = append(byFamily[f][name], s.MeasuredUS)
	}
	rows := make([]familyRow, 0, len(byFamily))
	for f, m := range byFamily {
		rows = append(rows, familyRow{Family: f, Requests: len(m["wire"]), WireUS: median(m["wire"]),
			ParseUS: median(m["gsql.parse"]), PlanUS: median(m["gsql.plan"]), ExecuteUS: median(m["gsql.execute"]),
			ApplyUS: median(m["core.durable_apply"])})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Family < rows[j].Family })
	return rows
}

// layerShares weights the anatomies of reads and writes by how many of
// each the window served, and returns each layer's self time as a
// percentage of request wall time: the layer-share table.
func layerShares(read, write anatomy, reads, writes int) map[string]float64 {
	wall := read.WallUS*float64(reads) + write.WallUS*float64(writes)
	shares := map[string]float64{}
	if wall == 0 {
		return shares
	}
	for l, v := range read.SelfUS {
		shares[l] += v * float64(reads)
	}
	for l, v := range write.SelfUS {
		shares[l] += v * float64(writes)
	}
	for l := range shares {
		shares[l] = shares[l] / wall * 100
	}
	return shares
}

// opLayer attributes an operator of an executed plan to the layer that
// implements it: semantic-join operators are core's, the rest rel's.
func opLayer(label string) string {
	if strings.HasPrefix(label, "e-join") || strings.HasPrefix(label, "l-join") {
		return "core"
	}
	return "rel"
}
