package expr

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// RenderFigure writes a figure as a plain-text table: one row per x, one
// column per series.
func RenderFigure(w io.Writer, f Figure) {
	fmt.Fprintf(w, "Figure %s — %s\n", f.ID, f.Title)
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	var xvals []float64
	for x := range xs {
		xvals = append(xvals, x)
	}
	sort.Float64s(xvals)

	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range xvals {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := "-"
			for _, p := range s.Points {
				if p.X == x {
					cell = fmt.Sprintf("%.3f", p.Y)
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	fmt.Fprintf(w, "(y: %s)\n\n", f.YLabel)
}

// RenderIncRows writes the Fig 5(h) / Exp-4 table.
func RenderIncRows(w io.Writer, rows []IncRow) {
	out := [][]string{{"collection", "|ΔG|%", "IncExt(s)", "RExt(s)", "speedup", "candidates", "affected"}}
	for _, r := range rows {
		speed := "-"
		if r.IncSeconds > 0 {
			speed = fmt.Sprintf("%.1fx", r.ExtSeconds/r.IncSeconds)
		}
		out = append(out, []string{
			r.Collection, fmt.Sprintf("%d", r.DeltaPct),
			fmt.Sprintf("%.4f", r.IncSeconds), fmt.Sprintf("%.4f", r.ExtSeconds),
			speed, fmt.Sprintf("%d", r.Candidates), fmt.Sprintf("%d", r.Affected),
		})
	}
	writeAligned(w, out)
}

// RenderTableIII writes the heuristic-accuracy table.
func RenderTableIII(w io.Writer, rows []TableIIIRow) {
	out := [][]string{{"group", "F-measure", "queries"}}
	for _, r := range rows {
		out = append(out, []string{r.Group, fmt.Sprintf("%.2f", r.F), fmt.Sprintf("%d", r.N)})
	}
	writeAligned(w, out)
}

// RenderEndToEnd writes the Exp-3(II) summary: per-collection averages
// and the headline speedup factors.
func RenderEndToEnd(w io.Writer, res EndToEndResult) {
	type agg struct {
		opt, base, heur float64
		rows            int64
		n               int
	}
	per := map[string]*agg{}
	var linkCold, linkWarm float64
	var linkN int
	for _, q := range res.PerQuery {
		a := per[q.Collection]
		if a == nil {
			a = &agg{}
			per[q.Collection] = a
		}
		if q.OptimizedMS >= 0 && q.BaselineMS >= 0 {
			a.opt += q.OptimizedMS
			a.base += q.BaselineMS
			a.heur += q.HeuristicMS
			a.rows += q.RowsProcessed
			a.n++
		}
		if q.Link && q.WarmLinkMS >= 0 {
			linkCold += q.OptimizedMS
			linkWarm += q.WarmLinkMS
			linkN++
		}
	}
	out := [][]string{{"collection", "optimized(ms)", "baseline(ms)", "heuristic(ms)", "base/opt", "base/heur", "rows/query", "precompute(s)"}}
	var colls []string
	for c := range per {
		colls = append(colls, c)
	}
	sort.Strings(colls)
	var totOpt, totBase, totHeur float64
	var totN int
	for _, c := range colls {
		a := per[c]
		if a.n == 0 {
			continue
		}
		out = append(out, []string{
			c,
			fmt.Sprintf("%.2f", a.opt/float64(a.n)),
			fmt.Sprintf("%.2f", a.base/float64(a.n)),
			fmt.Sprintf("%.2f", a.heur/float64(a.n)),
			fmt.Sprintf("%.1fx", a.base/a.opt),
			fmt.Sprintf("%.1fx", a.base/a.heur),
			fmt.Sprintf("%d", a.rows/int64(a.n)),
			fmt.Sprintf("%.1f", res.PrecomputeSeconds[c]),
		})
		totOpt += a.opt
		totBase += a.base
		totHeur += a.heur
		totN += a.n
	}
	writeAligned(w, out)
	if totOpt > 0 && totHeur > 0 {
		fmt.Fprintf(w, "overall: optimized %.1fx, heuristic %.1fx faster than baseline over %d queries\n",
			totBase/totOpt, totBase/totHeur, totN)
	}
	if linkN > 0 && linkWarm > 0 {
		fmt.Fprintf(w, "link joins: warm gL cache %.1fx faster than cold\n", linkCold/linkWarm)
	}
	fmt.Fprintln(w)
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%g", x)
	return s
}

func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		if ri == 0 {
			total := 0
			for _, ww := range widths {
				total += ww + 2
			}
			fmt.Fprintln(w, strings.Repeat("-", total-2))
		}
	}
}
