package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Each result has one rendering, in markdown: cmd/experiments prints it as
// its experiment finishes, and the report -out writes is WriteReportHeader
// followed by exactly what the console printed. Measured cells sit above
// the paper's (in italics) where the result carries a paper table; seconds
// and joules print to three significant digits, so no nonzero measurement
// reads as zero at a reduced scale.

// sig3 formats x to three significant digits, without an exponent.
func sig3(x float64) string {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 3, 64), 64)
	return strconv.FormatFloat(r, 'f', -1, 64)
}

// tableHead writes a markdown table's header row and rule.
func tableHead(w io.Writer, cols ...string) {
	fmt.Fprintf(w, "| %s |\n|%s\n", strings.Join(cols, " | "), strings.Repeat("---|", len(cols)))
}

// mapperHead is tableHead for a mapper × configuration table.
func mapperHead(w io.Writer, cols []Column) {
	head := []string{"mapper"}
	for _, col := range cols {
		head = append(head, col.String())
	}
	tableHead(w, head...)
}

// WriteReportHeader writes the head of the markdown report; its body is
// what cmd/experiments printed after its first line.
func WriteReportHeader(w io.Writer, sc Scale, seed int64, wall time.Duration) {
	fmt.Fprintf(w, "# EXPERIMENTS — paper vs measured\n\n")
	fmt.Fprintf(w, "Run: scale `%s` (reference %d bp, %d reads per set), seed %d, wall time %s.\n\n",
		sc.Name, sc.RefLen, sc.ReadsPerSet, seed, wall.Round(time.Second))
	fmt.Fprintf(w, "Mapping times are **simulated seconds** from the device models in "+
		"`internal/cl` (the work counts are real, the clock is modelled — see DESIGN.md §2); "+
		"the paper's numbers are measured on its physical testbed with 1M reads per set "+
		"against chr21, so absolute values differ by scale. The object of comparison is the "+
		"shape: orderings, rough factors and crossovers, checked explicitly below.\n")
}

// Render writes the comparison, each measured T(s) / A(%) cell above the
// paper's when the result carries its paper table.
func (c *Comparison) Render(w io.Writer) {
	fmt.Fprintf(w, "\n### %s\n\n", c.Title)
	fmt.Fprintf(w, "Accuracy metric: %s. Cells are `T(s) / A(%%)`, measured above _paper_.\n\n", c.Metric)
	mapperHead(w, c.Cols)
	for i, row := range c.Rows {
		fmt.Fprintf(w, "| %s |", row)
		for j, cell := range c.Cells[i] {
			fmt.Fprintf(w, " %s / %.1f", sig3(cell.TimeS), cell.AccPct)
			if c.Paper != nil {
				if pc, ok := c.Paper.Cells[row]; ok && j < len(pc) {
					fmt.Fprintf(w, " <br> _%s / %.1f_", sig3(pc[j].TimeS), pc[j].AccPct)
				}
			}
			fmt.Fprint(w, " |")
		}
		fmt.Fprintln(w)
	}
}

// Render writes Table IV, one block per system, each measured P(W) / E(J)
// cell above the paper's.
func (t *EnergyTable) Render(w io.Writer) {
	fmt.Fprintf(w, "\n### Table IV: power and energy (§III-D)\n\n")
	fmt.Fprintf(w, "Cells are `P(W) / E(J)`, measured above _paper_; P includes idle draw, E is marginal, as in the paper.\n")
	for _, sec := range t.Sections {
		fmt.Fprintf(w, "\n**%s** (idle %.1f W; paper idle %.1f W)\n\n", sec.System, sec.IdleW, PaperIdle[sec.System])
		mapperHead(w, t.Cols)
		for i, row := range sec.Rows {
			fmt.Fprintf(w, "| %s |", row)
			for j, cell := range sec.Cells[i] {
				fmt.Fprintf(w, " %.1f / %s", cell.PowerW, sig3(cell.EnergyJ))
				if pr, ok := PaperTable4[sec.System][row]; ok && j < len(pr) {
					fmt.Fprintf(w, " <br> _%.1f / %s_", pr[j].PowerW, sig3(pr[j].EnergyJ))
				}
				fmt.Fprint(w, " |")
			}
			fmt.Fprintln(w)
		}
	}
}

// Render writes a figure sweep and, under it, the paper's shape sentence.
func (s *Series) Render(w io.Writer) {
	fmt.Fprintf(w, "\n### %s\n\n", s.Title)
	tableHead(w, s.XLabel, "T(s)")
	for _, p := range s.Points {
		fmt.Fprintf(w, "| %s | %s |\n", p.Label, sig3(p.TimeS))
	}
	if s.Shape != "" {
		fmt.Fprintf(w, "\n%s\n", s.Shape)
	}
}

// Render writes the pre-alignment filter ablation.
func (b *PrefilterBench) Render(w io.Writer) {
	fmt.Fprintf(w, "\n### Pre-alignment filter ablation (%s scale, %d bp reads)\n\n", b.Scale, b.ReadLen)
	tableHead(w, "selector", "δ", "cands", "rejected", "frac", "f.acc", "f.accRate", "f.rej", "off (s)", "on (s)", "speedup")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "| %s | %d | %d | %d | %.1f%% | %d | %.1f%% | %d | %s | %s | %.2fx |\n",
			r.Selector, r.Delta, r.Candidates, r.Rejected, 100*r.FilteredFraction,
			r.FalseAccepts, 100*r.FalseAcceptRate, r.FalseRejects,
			sig3(r.SimSecondsOff), sig3(r.SimSecondsOn), r.Speedup)
	}
}
