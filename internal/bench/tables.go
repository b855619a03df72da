package bench

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/mapper"
)

// Metric selects the accuracy definition.
type Metric int

// Accuracy metrics.
const (
	MetricAll     Metric = iota // §III-A: all gold locations found
	MetricAnyBest               // §III-B: any matching location per read
)

func (m Metric) String() string {
	if m == MetricAll {
		return "all-locations (§III-A)"
	}
	return "any-best (§III-B)"
}

// CellTA holds one mapper×configuration measurement.
type CellTA struct {
	TimeS  float64
	AccPct float64
}

// Comparison is a Table I/II/III-shaped result.
type Comparison struct {
	Title  string
	Metric Metric
	Cols   []Column
	Rows   []string
	Cells  [][]CellTA
	// Paper is the paper's table this one reproduces, rendered beside
	// it; nil for a comparison the paper has no table for.
	Paper *PaperComparison
}

// RunComparison maps every spec over every column, measuring simulated
// time and accuracy against the gold spec under the given metric; paper
// (or nil) is the table the result renders beside.
func RunComparison(title string, paper *PaperComparison, suite *Suite, specs []Spec, cols []Column, metric Metric) (*Comparison, error) {
	cmp := &Comparison{Title: title, Metric: metric, Cols: cols, Paper: paper}
	for _, s := range specs {
		cmp.Rows = append(cmp.Rows, s.Label)
	}
	cmp.Cells = make([][]CellTA, len(specs))
	for i := range cmp.Cells {
		cmp.Cells[i] = make([]CellTA, len(cols))
	}
	goldIdx := -1
	for i, s := range specs {
		if s.Gold {
			goldIdx = i
			break
		}
	}
	if goldIdx < 0 {
		return nil, fmt.Errorf("bench: no gold spec in %s", title)
	}

	for ci, col := range cols {
		set, ok := suite.DS.Sets[col.ReadLen]
		if !ok {
			return nil, fmt.Errorf("bench: no read set of length %d", col.ReadLen)
		}
		results := make([]*mapper.Result, len(specs))
		for si, spec := range specs {
			m, err := suite.Mapper(spec)
			if err != nil {
				return nil, err
			}
			opt := baseOptions(col)
			if spec.Tune != nil {
				opt = spec.Tune(opt)
			}
			res, err := m.Map(set.Reads, opt)
			if err != nil {
				return nil, fmt.Errorf("bench: %s at %s: %w", spec.Label, col, err)
			}
			results[si] = res
			cmp.Cells[si][ci].TimeS = res.SimSeconds
		}
		gold := results[goldIdx].Mappings
		for si := range specs {
			var acc float64
			if metric == MetricAll {
				acc = eval.AccuracyAll(gold, results[si].Mappings, int32(col.Errors))
			} else {
				acc = eval.AccuracyAnyBest(gold, results[si].Mappings, int32(col.Errors))
			}
			cmp.Cells[si][ci].AccPct = acc
		}
	}
	return cmp, nil
}

// Cell returns the measurement for (rowLabel, col), or false.
func (c *Comparison) Cell(rowLabel string, col Column) (CellTA, bool) {
	ri := -1
	for i, r := range c.Rows {
		if r == rowLabel {
			ri = i
			break
		}
	}
	if ri < 0 {
		return CellTA{}, false
	}
	for j, cc := range c.Cols {
		if cc == col {
			return c.Cells[ri][j], true
		}
	}
	return CellTA{}, false
}

// EnergyCell is one Table IV measurement: wall power (idle included, as a
// meter would read) and marginal energy (the paper's (P-idle)×T).
type EnergyCell struct {
	PowerW  float64
	EnergyJ float64
	TimeS   float64
}

// EnergySection is one system's block of Table IV.
type EnergySection struct {
	System string
	IdleW  float64
	Rows   []string
	Cells  [][]EnergyCell // [row][col]
}

// EnergyTable is the Table IV result.
type EnergyTable struct {
	Cols     []Column
	Sections []EnergySection
}

// RunEnergy measures power and energy for the given specs on one system.
func RunEnergy(system string, idleW float64, suite *Suite, specs []Spec, cols []Column) (*EnergySection, error) {
	sec := &EnergySection{System: system, IdleW: idleW}
	for _, s := range specs {
		sec.Rows = append(sec.Rows, s.Label)
	}
	sec.Cells = make([][]EnergyCell, len(specs))
	for si, spec := range specs {
		sec.Cells[si] = make([]EnergyCell, len(cols))
		m, err := suite.Mapper(spec)
		if err != nil {
			return nil, err
		}
		for ci, col := range cols {
			set := suite.DS.Sets[col.ReadLen]
			opt := baseOptions(col)
			if spec.Tune != nil {
				opt = spec.Tune(opt)
			}
			res, err := m.Map(set.Reads, opt)
			if err != nil {
				return nil, fmt.Errorf("bench: %s energy at %s: %w", spec.Label, col, err)
			}
			cell := EnergyCell{EnergyJ: res.EnergyJ, TimeS: res.SimSeconds}
			if res.SimSeconds > 0 {
				cell.PowerW = idleW + res.EnergyJ/res.SimSeconds
			}
			sec.Cells[si][ci] = cell
		}
	}
	return sec, nil
}
