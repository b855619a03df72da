package bench

import (
	"fmt"
	"io"
	"time"
)

// Report bundles one experiment run for rendering. cmd/experiments fills
// the experiments its -run list selects; the rest stay nil and are left
// out of the rendering.
type Report struct {
	Scale    Scale
	Seed     int64
	Started  time.Time
	Duration time.Duration
	T1, T2   *Comparison
	T3       *Comparison
	T4       *EnergyTable
	F3, F4   *Series
}

// markdownComparison renders measured vs paper cells side by side.
func markdownComparison(w io.Writer, c *Comparison, paper *PaperComparison) {
	fmt.Fprintf(w, "\n### %s\n\n", c.Title)
	fmt.Fprintf(w, "Accuracy metric: %s. Cells are `measured | paper` as `T(s) / A(%%)`.\n\n", c.Metric)
	fmt.Fprintf(w, "| mapper |")
	for _, col := range c.Cols {
		fmt.Fprintf(w, " %s |", col)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|---|")
	for range c.Cols {
		fmt.Fprintf(w, "---|")
	}
	fmt.Fprintln(w)
	for i, row := range c.Rows {
		fmt.Fprintf(w, "| %s |", row)
		for j := range c.Cols {
			cell := c.Cells[i][j]
			fmt.Fprintf(w, " %.2f / %.1f", cell.TimeS, cell.AccPct)
			if paper != nil {
				if pc, ok := paper.Cells[row]; ok && j < len(pc) {
					fmt.Fprintf(w, " <br> _%.1f / %.1f_", pc[j].TimeS, pc[j].AccPct)
				}
			}
			fmt.Fprintf(w, " |")
		}
		fmt.Fprintln(w)
	}
}

// markdownEnergy renders Table IV measured vs paper.
func markdownEnergy(w io.Writer, t *EnergyTable) {
	fmt.Fprintf(w, "\n### Table IV: power and energy (§III-D)\n\n")
	fmt.Fprintf(w, "Cells are `measured | paper` as `P(W) / E(J)`; P includes idle draw, E is marginal, as in the paper.\n\n")
	for _, sec := range t.Sections {
		fmt.Fprintf(w, "**%s** (idle %.1f W; paper idle %.1f W)\n\n", sec.System, sec.IdleW, PaperIdle[sec.System])
		fmt.Fprintf(w, "| mapper |")
		for _, col := range t.Cols {
			fmt.Fprintf(w, " %s |", col)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "|---|")
		for range t.Cols {
			fmt.Fprintf(w, "---|")
		}
		fmt.Fprintln(w)
		paperRows := PaperTable4[sec.System]
		for i, row := range sec.Rows {
			fmt.Fprintf(w, "| %s |", row)
			for j := range t.Cols {
				cell := sec.Cells[i][j]
				fmt.Fprintf(w, " %.1f / %.1f", cell.PowerW, cell.EnergyJ)
				if pr, ok := paperRows[row]; ok && j < len(pr) {
					fmt.Fprintf(w, " <br> _%.1f / %.1f_", pr[j].PowerW, pr[j].EnergyJ)
				}
				fmt.Fprintf(w, " |")
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
}

// markdownSeries renders a figure sweep.
func markdownSeries(w io.Writer, s *Series) {
	fmt.Fprintf(w, "\n### %s\n\n| %s | T(s) |\n|---|---|\n", s.Title, s.XLabel)
	for _, p := range s.Points {
		fmt.Fprintf(w, "| %s | %.2f |\n", p.Label, p.TimeS)
	}
}

// WriteMarkdown renders the report, paper vs measured, with the shape
// checks over whatever ran (the file cmd/experiments -out writes).
func (r *Report) WriteMarkdown(w io.Writer) {
	fmt.Fprintf(w, "# EXPERIMENTS — paper vs measured\n\n")
	fmt.Fprintf(w, "Run: scale `%s` (reference %d bp, %d reads per set), seed %d, wall time %s.\n\n",
		r.Scale.Name, r.Scale.RefLen, r.Scale.ReadsPerSet, r.Seed, r.Duration.Round(time.Second))
	fmt.Fprintf(w, "Mapping times are **simulated seconds** from the device models in "+
		"`internal/cl` (the work counts are real, the clock is modelled — see DESIGN.md §2); "+
		"the paper's numbers are measured on its physical testbed with 1M reads per set "+
		"against chr21, so absolute values differ by scale. The object of comparison is the "+
		"shape: orderings, rough factors and crossovers, checked explicitly below.\n")
	if r.T1 != nil {
		markdownComparison(w, r.T1, &PaperTable1)
	}
	if r.T2 != nil {
		markdownComparison(w, r.T2, &PaperTable2)
	}
	if r.T3 != nil {
		markdownComparison(w, r.T3, &PaperTable3)
	}
	if r.T4 != nil {
		markdownEnergy(w, r.T4)
	}
	if r.F3 != nil {
		markdownSeries(w, r.F3)
		fmt.Fprintf(w, "\nPaper Fig. 3 shape: time falls as reads move to the GPUs, then flattens/rises as a GPU becomes the bottleneck.\n")
	}
	if r.F4 != nil {
		markdownSeries(w, r.F4)
		fmt.Fprintf(w, "\nPaper Fig. 4 shape: U-curve — small Smin pays in DP filtration time, large Smin pays in candidate verification.\n")
	}

	fmt.Fprintf(w, "\n## Shape checks\n\n")
	checks := CheckShapes(r.T1, r.T2, r.T3, r.T4, r.F3, r.F4)
	for _, c := range checks {
		mark := "✅"
		if !c.Pass {
			mark = "❌"
		}
		if c.Detail != "" {
			fmt.Fprintf(w, "- %s %s — %s\n", mark, c.Name, c.Detail)
		} else {
			fmt.Fprintf(w, "- %s %s\n", mark, c.Name)
		}
	}
}
