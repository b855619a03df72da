package bench

import (
	"fmt"
	"io"

	"repro/internal/cl"
)

// filterSpecs drops specs whose label matches any of drop.
func filterSpecs(specs []Spec, drop ...string) []Spec {
	out := specs[:0:0]
	for _, s := range specs {
		skip := false
		for _, d := range drop {
			if s.Label == d {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, s)
		}
	}
	return out
}

// Table1 reproduces Table I: the homogeneous scenario — every mapper on
// System 1's CPU, accuracy per §III-A against the RazerS3 gold standard.
func Table1(ds *Dataset) (*Comparison, error) {
	suite := NewSuite(ds)
	return RunComparison(
		"Table I: mapping on the CPU (homogeneous scenario)",
		suite, SystemOneSpecs(false), PaperColumns, MetricAll)
}

// Table2 reproduces Table II: the heterogeneous scenario — baselines as
// before, CORAL/REPUTE split across CPU + 2 GPUs, accuracy per §III-B.
func Table2(ds *Dataset) (*Comparison, error) {
	suite := NewSuite(ds)
	specs := filterSpecs(SystemOneSpecs(true), "CORAL-cpu", "REPUTE-cpu")
	return RunComparison(
		"Table II: mapping on the CPU + 2 GPUs (heterogeneous scenario)",
		suite, specs, PaperColumns, MetricAnyBest)
}

// Table3 reproduces Table III: the embedded scenario on the HiKey970,
// with the four mappers that run there, accuracy per §III-B (§III-C
// adopts that methodology).
func Table3(ds *Dataset) (*Comparison, error) {
	suite := NewSuite(ds)
	return RunComparison(
		"Table III: mapping on the HiKey970 SoC (embedded scenario)",
		suite, SystemTwoSpecs(), PaperColumns, MetricAnyBest)
}

// Table4 reproduces Table IV: power and energy on both systems for the
// two §III-D configurations.
func Table4(ds *Dataset) (*EnergyTable, error) {
	t := &EnergyTable{Cols: EnergyColumns}
	sys1 := NewSuite(ds)
	specs1 := filterSpecs(SystemOneSpecs(true), "Yara", "BWA-MEM", "GEM")
	sec1, err := RunEnergy("System 1", cl.SystemOneIdleW, sys1, specs1, EnergyColumns)
	if err != nil {
		return nil, err
	}
	t.Sections = append(t.Sections, *sec1)
	sys2 := NewSuite(ds)
	sec2, err := RunEnergy("System 2", cl.SystemTwoIdleW, sys2, SystemTwoSpecs(), EnergyColumns)
	if err != nil {
		return nil, err
	}
	t.Sections = append(t.Sections, *sec2)
	return t, nil
}

// ShapeCheck is one qualitative claim of the paper checked against the
// measured results. The markdown report records these: the reproduction's
// goal is the shape (who wins, by what rough factor), not absolute seconds.
type ShapeCheck struct {
	Name   string
	Detail string
	Pass   bool
}

// CheckShapes evaluates the paper's headline claims on measured results.
// Any of t1..f4 may be nil; their checks are skipped.
func CheckShapes(t1, t2, t3 *Comparison, t4 *EnergyTable, f3, f4 *Series) []ShapeCheck {
	var checks []ShapeCheck
	add := func(name string, pass bool, detail string, args ...any) {
		checks = append(checks, ShapeCheck{Name: name, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
	}

	if t1 != nil {
		worst, best := 1e18, 0.0
		fasterCount := 0
		for _, col := range t1.Cols {
			r, _ := t1.Cell("REPUTE-cpu", col)
			y, _ := t1.Cell("Yara", col)
			if y.TimeS > 0 {
				sp := y.TimeS / r.TimeS
				if sp < worst {
					worst = sp
				}
				if sp > best {
					best = sp
				}
				if sp >= 0.95 {
					fasterCount++
				}
			}
		}
		// Yara's approximate-seed backtracking blows up at n=150, high δ
		// (the paper's 321 s cell behind the 13x headline); the factor is
		// scale-dependent, the ordering is not.
		y6, _ := t1.Cell("Yara", Column{150, 6})
		r6, _ := t1.Cell("REPUTE-cpu", Column{150, 6})
		y7, _ := t1.Cell("Yara", Column{150, 7})
		r7, _ := t1.Cell("REPUTE-cpu", Column{150, 7})
		add("T1: REPUTE-cpu beats Yara, decisively at n=150 high δ (paper: up to 13x)",
			fasterCount >= len(t1.Cols)-1 && y6.TimeS > r6.TimeS && y7.TimeS > r7.TimeS,
			"speedup range %.1fx..%.1fx, n150δ7 %.1fx", worst, best, y7.TimeS/r7.TimeS)

		rz := true
		for _, col := range t1.Cols {
			r, _ := t1.Cell("REPUTE-cpu", col)
			z, _ := t1.Cell("RazerS3", col)
			if r.TimeS >= z.TimeS {
				rz = false
			}
		}
		add("T1: REPUTE-cpu beats RazerS3 everywhere", rz, "")

		// The DP-vs-heuristic margin grows with reference scale (the
		// candidate savings scale with repeat multiplicity, the DP cost
		// does not); at reduced scale we require parity at the paper's
		// showcase cell and a majority of wins overall.
		rep, _ := t1.Cell("REPUTE-cpu", Column{150, 7})
		cor, _ := t1.Cell("CORAL-cpu", Column{150, 7})
		wins := 0
		for _, col := range t1.Cols {
			r, _ := t1.Cell("REPUTE-cpu", col)
			c, _ := t1.Cell("CORAL-cpu", col)
			if r.TimeS <= c.TimeS*1.02 {
				wins++
			}
		}
		add("T1: DP filtration matches/beats the CORAL heuristic (paper: 2x at n=150, δ=7)",
			rep.TimeS <= cor.TimeS*1.05 && wins >= 4,
			"REPUTE %.3fs vs CORAL %.3fs at n150δ7; parity-or-better in %d/%d configs",
			rep.TimeS, cor.TimeS, wins, len(t1.Cols))

		lowBest := true
		for _, m := range []string{"Yara", "GEM", "BWA-MEM"} {
			for _, col := range t1.Cols {
				c, ok := t1.Cell(m, col)
				if ok && c.AccPct > 60 {
					lowBest = false
				}
			}
		}
		add("T1: best-mappers score low under the all-locations metric (paper: 4-40%)",
			lowBest, "")

		hiAcc := true
		for _, m := range []string{"Hobbes3", "REPUTE-cpu", "CORAL-cpu"} {
			for _, col := range t1.Cols {
				c, _ := t1.Cell(m, col)
				if c.AccPct < 99 {
					hiAcc = false
				}
			}
		}
		add("T1: all-mappers stay above 99% accuracy", hiAcc, "")
	}

	if t2 != nil {
		recovered := true
		for _, m := range []string{"Yara", "GEM", "BWA-MEM"} {
			for _, col := range t2.Cols {
				c, ok := t2.Cell(m, col)
				if ok && c.AccPct < 80 {
					recovered = false
				}
			}
		}
		add("T2: best-mappers recover to 80-100% under any-best (paper: 89-100%)",
			recovered, "")
	}

	if t1 != nil && t2 != nil {
		faster, count := 0, 0
		var maxSp float64
		for _, col := range t1.Cols {
			cpu, _ := t1.Cell("REPUTE-cpu", col)
			all, ok := t2.Cell("REPUTE-all", col)
			if !ok {
				continue
			}
			count++
			if all.TimeS < cpu.TimeS {
				faster++
			}
			if sp := cpu.TimeS / all.TimeS; sp > maxSp {
				maxSp = sp
			}
		}
		add("T1/T2: adding GPUs speeds REPUTE up (paper: up to ~2x)",
			faster >= count/2 && maxSp > 1.2 && maxSp < 4,
			"faster in %d/%d configs, max speedup %.2fx", faster, count, maxSp)
	}

	if t1 != nil && t3 != nil {
		sane := true
		var worst float64
		for _, col := range t3.Cols {
			hik, _ := t3.Cell("REPUTE-HiKey", col)
			cpu, _ := t1.Cell("REPUTE-cpu", col)
			ratio := hik.TimeS / cpu.TimeS
			if ratio > worst {
				worst = ratio
			}
			if ratio < 1 || ratio > 10 {
				sane = false
			}
		}
		add("T3: embedded SoC is slower than the workstation but comparable (paper: ~2-4x)",
			sane, "worst slowdown %.1fx", worst)
	}

	if t3 != nil {
		wins := 0
		for _, col := range t3.Cols {
			rep, _ := t3.Cell("REPUTE-HiKey", col)
			rz, _ := t3.Cell("RazerS3", col)
			if rep.TimeS < rz.TimeS {
				wins++
			}
		}
		add("T3: REPUTE-HiKey beats RazerS3 on the SoC (paper: up to 4x)",
			wins == len(t3.Cols), "wins %d/%d", wins, len(t3.Cols))
	}

	if t4 != nil && len(t4.Sections) == 2 {
		sys1, sys2 := t4.Sections[0], t4.Sections[1]
		cellOf := func(sec EnergySection, row string, col int) (EnergyCell, bool) {
			for i, r := range sec.Rows {
				if r == row {
					return sec.Cells[i][col], true
				}
			}
			return EnergyCell{}, false
		}
		e1, ok1 := cellOf(sys1, "REPUTE-all", 1)
		e2, ok2 := cellOf(sys2, "REPUTE-HiKey", 1)
		ratio := 0.0
		if ok1 && ok2 && e2.EnergyJ > 0 {
			ratio = e1.EnergyJ / e2.EnergyJ
		}
		add("T4: embedded REPUTE saves an order of magnitude of energy (paper: ~12-27x)",
			ratio > 5, "System1/System2 energy ratio %.1fx", ratio)

		// The paper's margin over CORAL here is only ~4% (78.6 vs 82.1 J),
		// so require lowest-or-within-10% rather than a strict win.
		lowest := true
		for ci := range EnergyColumns {
			rep, _ := cellOf(sys2, "REPUTE-HiKey", ci)
			for _, row := range sys2.Rows {
				if row == "REPUTE-HiKey" {
					continue
				}
				other, _ := cellOf(sys2, row, ci)
				if other.EnergyJ*1.10 < rep.EnergyJ {
					lowest = false
				}
			}
		}
		add("T4: REPUTE has the lowest energy on the HiKey970 (paper margin ~4%)", lowest, "")
	}

	if f3 != nil && len(f3.Points) > 2 {
		minIdx := 0
		for i, p := range f3.Points {
			if p.TimeS < f3.Points[minIdx].TimeS {
				minIdx = i
			}
		}
		add("F3: offloading to GPUs improves on CPU-only (minimum not at zero offload)",
			minIdx > 0, "best point at %s reads/GPU", f3.Points[minIdx].Label)
	}

	if f4 != nil && len(f4.Points) > 2 {
		minIdx := 0
		for i, p := range f4.Points {
			if p.TimeS < f4.Points[minIdx].TimeS {
				minIdx = i
			}
		}
		interior := minIdx > 0 && minIdx < len(f4.Points)-1
		add("F4: Smin sweep is U-shaped (interior optimum, paper: rises again at 20)",
			interior, "best at %s", f4.Points[minIdx].Label)
	}

	return checks
}

// RenderChecks prints shape-check results.
func RenderChecks(w io.Writer, checks []ShapeCheck) {
	for _, c := range checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		if c.Detail != "" {
			fmt.Fprintf(w, "[%s] %s — %s\n", status, c.Name, c.Detail)
		} else {
			fmt.Fprintf(w, "[%s] %s\n", status, c.Name)
		}
	}
}
