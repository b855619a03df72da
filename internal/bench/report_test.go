package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

// fabricated holds one result of each paper experiment.
type fabricated struct {
	t1, t2, t3 *Comparison
	t4         *EnergyTable
	f3, f4     *Series
}

// fabricate builds minimal but well-formed results so the renderers and
// the shape checks can be tested without an hour-long run.
func fabricate() fabricated {
	mkCmp := func(title string, paper *PaperComparison, rows []string, metric Metric) *Comparison {
		c := &Comparison{Title: title, Metric: metric, Cols: PaperColumns, Rows: rows, Paper: paper}
		c.Cells = make([][]CellTA, len(rows))
		for i := range rows {
			c.Cells[i] = make([]CellTA, len(PaperColumns))
			for j := range c.Cells[i] {
				c.Cells[i][j] = CellTA{TimeS: float64(i+1) * 0.1, AccPct: 99}
			}
		}
		return c
	}
	t1 := mkCmp("Table I", &PaperTable1, []string{"RazerS3", "Hobbes3", "Yara", "BWA-MEM", "GEM", "CORAL-cpu", "REPUTE-cpu"}, MetricAll)
	t2 := mkCmp("Table II", &PaperTable2, []string{"RazerS3", "Hobbes3", "Yara", "BWA-MEM", "GEM", "CORAL-all", "REPUTE-all"}, MetricAnyBest)
	t3 := mkCmp("Table III", &PaperTable3, []string{"RazerS3", "Hobbes3", "CORAL-HiKey", "REPUTE-HiKey"}, MetricAnyBest)
	t4 := &EnergyTable{
		Cols: EnergyColumns,
		Sections: []EnergySection{
			{System: "System 1", IdleW: 160, Rows: []string{"REPUTE-all"},
				Cells: [][]EnergyCell{{{PowerW: 450, EnergyJ: 1500, TimeS: 5}, {PowerW: 460, EnergyJ: 2500, TimeS: 8}}}},
			{System: "System 2", IdleW: 3.5, Rows: []string{"REPUTE-HiKey"},
				Cells: [][]EnergyCell{{{PowerW: 8, EnergyJ: 80, TimeS: 17}, {PowerW: 8, EnergyJ: 210, TimeS: 50}}}},
		},
	}
	f3 := &Series{Title: "Fig. 3", XLabel: "reads per GPU", Shape: "Paper Fig. 3 shape: falls, then flattens.",
		Points: []SeriesPoint{{X: 0, TimeS: 5, Label: "0"}, {X: 100, TimeS: 3, Label: "100"}, {X: 200, TimeS: 4, Label: "200"}}}
	f4 := &Series{Title: "Fig. 4", XLabel: "Smin", Shape: "Paper Fig. 4 shape: U-curve.",
		Points: []SeriesPoint{{X: 8, TimeS: 4, Label: "Smin=8"}, {X: 12, TimeS: 3, Label: "Smin=12"}, {X: 20, TimeS: 5, Label: "Smin=20"}}}
	return fabricated{t1: t1, t2: t2, t3: t3, t4: t4, f3: f3, f4: f4}
}

// TestWriteMarkdownStructure: the report header and the one rendering of
// each result make a markdown report with the paper's cells beside the
// measured ones and the paper's shape sentence under each figure.
func TestWriteMarkdownStructure(t *testing.T) {
	r := fabricate()
	var buf bytes.Buffer
	WriteReportHeader(&buf, Tiny, 1, time.Minute)
	for _, res := range []interface{ Render(io.Writer) }{r.t1, r.t2, r.t3, r.t4, r.f3, r.f4} {
		res.Render(&buf)
	}
	out := buf.String()
	for _, want := range []string{
		"# EXPERIMENTS — paper vs measured",
		"wall time 1m0s",
		"### Table I",
		"### Table II",
		"### Table III",
		"### Table IV",
		"### Fig. 3",
		"### Fig. 4",
		"| reads per GPU | T(s) |",
		"Paper Fig. 3 shape: falls, then flattens.",
		"Paper Fig. 4 shape: U-curve.",
		"| REPUTE-cpu |", "| REPUTE-HiKey |",
		"simulated seconds",
		"_455.0 / 1550_", // paper Table IV, System 1 REPUTE-all
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Paper numbers must appear alongside measured ones (italicised).
	if !strings.Contains(out, "_26.7 / 100.0_") {
		t.Errorf("paper Table I numbers not embedded:\n%s", out[:min(2000, len(out))])
	}
}

// TestRenderKeepsSmallScaleDigits: seconds and joules print to three
// significant digits, so the millisecond cells of a reduced-scale run do
// not read as zero.
func TestRenderKeepsSmallScaleDigits(t *testing.T) {
	var buf bytes.Buffer
	(&Comparison{Title: "small", Cols: []Column{{100, 3}}, Rows: []string{"REPUTE-cpu"},
		Cells: [][]CellTA{{{TimeS: 0.0034, AccPct: 99.5}}}}).Render(&buf)
	(&EnergyTable{Cols: []Column{{100, 3}}, Sections: []EnergySection{{System: "System 2", IdleW: 3.5,
		Rows: []string{"REPUTE-HiKey"}, Cells: [][]EnergyCell{{{PowerW: 4.2, EnergyJ: 0.041, TimeS: 0.06}}}}}}).Render(&buf)
	(&Series{Title: "sweep", XLabel: "x", Points: []SeriesPoint{{TimeS: 0.000123, Label: "a"}}}).Render(&buf)
	out := buf.String()
	for _, want := range []string{"| 0.0034 / 99.5 |", "| 4.2 / 0.041 <br>", "| a | 0.000123 |"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	for _, zero := range []string{" 0.00 ", " 0.0 ", "/ 0.0 "} {
		if strings.Contains(out, zero) {
			t.Errorf("render prints a nonzero measurement as %q:\n%s", zero, out)
		}
	}
	for x, want := range map[float64]string{0: "0", 0.0034: "0.0034", 26.7: "26.7", 321.4: "321", 1540.7: "1540", 4e-05: "0.00004"} {
		if got := sig3(x); got != want {
			t.Errorf("sig3(%v) = %q, want %q", x, got, want)
		}
	}
}

func TestShapeChecksOnFabricatedReport(t *testing.T) {
	r := fabricate()
	checks := CheckShapes(r.t1, r.t2, r.t3, r.t4, r.f3, r.f4)
	if len(checks) < 10 {
		t.Fatalf("only %d checks", len(checks))
	}
	byName := map[string]ShapeCheck{}
	for _, c := range checks {
		byName[c.Name] = c
	}
	// The fabricated figures have interior minima: those checks pass.
	for name, c := range byName {
		if strings.HasPrefix(name, "F3:") && !c.Pass {
			t.Errorf("F3 check failed on interior-minimum series: %+v", c)
		}
		if strings.HasPrefix(name, "F4:") && !c.Pass {
			t.Errorf("F4 check failed on interior-minimum series: %+v", c)
		}
	}
	// Energy ratio 2500/210 ≈ 12x: the embedded-energy check passes.
	for name, c := range byName {
		if strings.Contains(name, "order of magnitude of energy") && !c.Pass {
			t.Errorf("energy check failed: %+v", c)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
