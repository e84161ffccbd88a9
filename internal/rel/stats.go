package rel

import (
	"fmt"
	"strings"
	"time"
)

// OpStats are one operator's live counters. Elapsed is inclusive of
// the operator's children (time spent inside Open and Next of the
// whole subtree), so the root's Elapsed approximates total plan time.
type OpStats struct {
	Label   string
	Note    string // strategy annotation, e.g. "gL hit"
	RowsOut int64
	Batches int64 // batches emitted
	Elapsed time.Duration
	Workers int // goroutines used by a parallel operator, 0 if serial
}

// PlanLine is one operator of a rendered plan, in depth-first
// pre-order.
type PlanLine struct {
	Depth   int
	Label   string
	Note    string
	Rows    int64
	Batches int64
	Elapsed time.Duration
	Workers int
}

// RowsPerBatch returns the mean live rows per emitted batch, rounded
// down; 0 when the operator emitted nothing.
func (l PlanLine) RowsPerBatch() int64 {
	if l.Batches <= 0 {
		return 0
	}
	return l.Rows / l.Batches
}

// String renders the line indented by depth, e.g.
// "  hash join tid=tid  rows=42 time=1.2ms batches=1 rows/batch=42
// workers=4". The batch traffic is omitted for an operator that
// emitted nothing.
func (l PlanLine) String() string {
	label := l.Label
	if l.Note != "" {
		label += " [" + l.Note + "]"
	}
	s := fmt.Sprintf("%s%s  rows=%d time=%s",
		strings.Repeat("  ", l.Depth), label, l.Rows, l.Elapsed.Round(time.Microsecond))
	if l.Batches > 0 {
		s += fmt.Sprintf(" batches=%d rows/batch=%d", l.Batches, l.RowsPerBatch())
	}
	if l.Workers > 0 {
		s += fmt.Sprintf(" workers=%d", l.Workers)
	}
	return s
}

// ParsePlanLine is the inverse of PlanLine.String. It is field-aware
// rather than regex-based: the note may itself contain ']' (e.g.
// "gL miss [cap=4]"), which position-blind patterns mis-split. The
// second return is false when line is not a rendered plan line.
func ParsePlanLine(line string) (PlanLine, bool) {
	var l PlanLine
	// Trailing counters start at the LAST "  rows=" — labels and notes
	// never contain two consecutive spaces, so the split is unambiguous.
	cut := strings.LastIndex(line, "  rows=")
	if cut < 0 {
		return l, false
	}
	head, tail := line[:cut], line[cut+2:]

	fields := strings.Fields(tail)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "rows=") || !strings.HasPrefix(fields[1], "time=") {
		return l, false
	}
	if _, err := fmt.Sscanf(fields[0], "rows=%d", &l.Rows); err != nil {
		return l, false
	}
	d, err := time.ParseDuration(strings.TrimPrefix(fields[1], "time="))
	if err != nil {
		return l, false
	}
	l.Elapsed = d
	// Optional trailing fields, in rendering order: batches= and
	// rows/batch=, then workers= (parallel operators).
	rest := fields[2:]
	if len(rest) > 0 && strings.HasPrefix(rest[0], "batches=") {
		if _, err := fmt.Sscanf(rest[0], "batches=%d", &l.Batches); err != nil {
			return l, false
		}
		rest = rest[1:]
		if len(rest) == 0 || !strings.HasPrefix(rest[0], "rows/batch=") {
			return l, false
		}
		var perBatch int64
		if _, err := fmt.Sscanf(rest[0], "rows/batch=%d", &perBatch); err != nil {
			return l, false
		}
		rest = rest[1:]
	}
	if len(rest) > 0 {
		if !strings.HasPrefix(rest[0], "workers=") {
			return l, false
		}
		if _, err := fmt.Sscanf(rest[0], "workers=%d", &l.Workers); err != nil {
			return l, false
		}
	}

	for strings.HasPrefix(head, "  ") {
		l.Depth++
		head = head[2:]
	}
	// The note spans from the FIRST " [" to the final ']' — everything
	// in between, brackets included, belongs to the note.
	if i := strings.Index(head, " ["); i >= 0 && strings.HasSuffix(head, "]") {
		l.Label = head[:i]
		l.Note = head[i+2 : len(head)-1]
	} else {
		l.Label = head
	}
	return l, true
}

// ExecStats is the per-operator account of one executed plan: the
// query-level observability layer EXPLAIN and the experiment harness
// report from.
type ExecStats struct {
	Lines []PlanLine
}

// CollectStats snapshots the counters of the operator tree rooted at
// it into an ExecStats (depth-first pre-order, root first).
func CollectStats(it Iterator) *ExecStats {
	st := &ExecStats{}
	var walk func(node Iterator, depth int)
	walk = func(node Iterator, depth int) {
		s := node.Stats()
		st.Lines = append(st.Lines, PlanLine{
			Depth: depth, Label: s.Label, Note: s.Note,
			Rows: s.RowsOut, Batches: s.Batches, Elapsed: s.Elapsed, Workers: s.Workers,
		})
		for _, c := range node.Children() {
			walk(c, depth+1)
		}
	}
	walk(it, 0)
	return st
}

// TotalRows sums rows-out across all operators — a proxy for how much
// tuple traffic the plan moved.
func (st *ExecStats) TotalRows() int64 {
	var n int64
	for _, l := range st.Lines {
		n += l.Rows
	}
	return n
}

// String renders the plan tree one operator per line.
func (st *ExecStats) String() string {
	var b strings.Builder
	for _, l := range st.Lines {
		b.WriteString(l.String())
		b.WriteByte('\n')
	}
	return b.String()
}
