package gsql

import (
	"context"
	"fmt"
	"strings"
	"time"

	"semjoin/internal/obs"
	"semjoin/internal/rel"
)

// Explain executes input (with or without a leading EXPLAIN keyword)
// and renders the well-behaved verdict, the strategy notes and the
// operator tree annotated with per-operator rows-out and wall time.
func (e *Engine) Explain(input string) (string, error) {
	return e.ExplainContext(context.Background(), input)
}

// ExplainContext is Explain with cancellation.
func (e *Engine) ExplainContext(ctx context.Context, input string) (string, error) {
	defer e.unpin()
	trimmed := strings.TrimSpace(input)
	if len(trimmed) >= 7 && strings.EqualFold(trimmed[:7], "explain") {
		trimmed = trimmed[7:]
	}
	_, q, err := e.run(ctx, trimmed)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	e.writeVerdict(&b, q)
	b.WriteString(e.LastStats.String())
	return b.String(), nil
}

// ExplainAnalyze executes input (stripping a leading EXPLAIN ANALYZE if
// present) and renders the verdict and strategy notes followed by the
// query's trace: the parse/plan/execute spans with wall times, the
// executed operator tree nested under the execute span.
func (e *Engine) ExplainAnalyze(input string) (string, error) {
	return e.ExplainAnalyzeContext(context.Background(), input)
}

// ExplainAnalyzeContext is ExplainAnalyze with cancellation.
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, input string) (string, error) {
	defer e.unpin()
	trimmed := strings.TrimSpace(input)
	if len(trimmed) >= 7 && strings.EqualFold(trimmed[:7], "explain") {
		trimmed = strings.TrimSpace(trimmed[7:])
	}
	if len(trimmed) >= 7 && strings.EqualFold(trimmed[:7], "analyze") {
		trimmed = trimmed[7:]
	}
	_, q, err := e.run(ctx, trimmed)
	if err != nil {
		return "", err
	}
	return e.renderAnalyze(q), nil
}

// writeVerdict writes the well-behaved verdict and strategy notes.
func (e *Engine) writeVerdict(b *strings.Builder, q *Query) {
	verdict := "false"
	if e.WellBehaved(q) {
		verdict = "true"
	}
	fmt.Fprintf(b, "well-behaved: %s\n", verdict)
	for _, p := range e.Plan {
		fmt.Fprintf(b, "strategy: %s\n", p)
	}
}

// renderAnalyze merges the last trace with the last operator stats:
// the span tree renders one line per span, and the operator PlanLines
// nest under the execute span one level deeper.
func (e *Engine) renderAnalyze(q *Query) string {
	var b strings.Builder
	e.writeVerdict(&b, q)
	if e.LastTrace == nil {
		return b.String()
	}
	e.LastTrace.Walk(func(s *obs.Span, depth int) {
		indent := strings.Repeat("  ", depth)
		note := ""
		if s.Note != "" {
			note = " [" + s.Note + "]"
		}
		fmt.Fprintf(&b, "%s%s%s  time=%s\n", indent, s.Name, note, s.Duration.Round(time.Microsecond))
		if s.Name == "execute" && e.LastStats != nil {
			for _, l := range e.LastStats.Lines {
				nl := l
				nl.Depth += depth + 1
				b.WriteString(nl.String())
				b.WriteByte('\n')
			}
		}
	})
	return b.String()
}

// analyzeRelation renders the EXPLAIN ANALYZE output as a (step, note)
// relation, one line per row.
func (e *Engine) analyzeRelation(q *Query) *rel.Relation {
	plan := rel.NewRelation(rel.NewSchema("plan", "",
		rel.Attribute{Name: "step", Type: rel.KindInt},
		rel.Attribute{Name: "note", Type: rel.KindString},
	))
	text := strings.TrimRight(e.renderAnalyze(q), "\n")
	for i, line := range strings.Split(text, "\n") {
		plan.InsertVals(rel.I(int64(i)), rel.S(line))
	}
	return plan
}

// explainRelation renders the EXPLAIN result as a (step, note)
// relation: the verdict, the strategy notes, then the operator tree.
func (e *Engine) explainRelation(q *Query) *rel.Relation {
	plan := rel.NewRelation(rel.NewSchema("plan", "",
		rel.Attribute{Name: "step", Type: rel.KindInt},
		rel.Attribute{Name: "note", Type: rel.KindString},
	))
	verdict := "well-behaved: false"
	if e.WellBehaved(q) {
		verdict = "well-behaved: true"
	}
	plan.InsertVals(rel.I(0), rel.S(verdict))
	step := int64(1)
	for _, p := range e.Plan {
		plan.InsertVals(rel.I(step), rel.S(p))
		step++
	}
	if e.LastStats != nil {
		for _, l := range e.LastStats.Lines {
			plan.InsertVals(rel.I(step), rel.S(l.String()))
			step++
		}
	}
	return plan
}
