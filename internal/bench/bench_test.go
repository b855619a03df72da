package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyDS builds a once-per-process dataset small enough for unit tests.
var tinyCache *Dataset

func tinyDS(t *testing.T) *Dataset {
	t.Helper()
	if tinyCache != nil {
		return tinyCache
	}
	sc := Scale{Name: "unit", RefLen: 120_000, ReadsPerSet: 150}
	ds, err := BuildDataset(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	tinyCache = ds
	return ds
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", "full"} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestBuildDataset(t *testing.T) {
	ds := tinyDS(t)
	if len(ds.Ref) != 120_000 {
		t.Fatalf("ref length %d", len(ds.Ref))
	}
	for _, n := range []int{100, 150} {
		set, ok := ds.Sets[n]
		if !ok {
			t.Fatalf("missing %d-bp set", n)
		}
		if len(set.Reads) != 150 {
			t.Fatalf("%d-bp set has %d reads", n, len(set.Reads))
		}
		if len(set.Reads[0]) != n {
			t.Fatalf("%d-bp set read length %d", n, len(set.Reads[0]))
		}
	}
}

func TestMaxQFor(t *testing.T) {
	if q := maxQFor(1 << 30); q != 11 {
		t.Errorf("maxQFor(1G) = %d want 11", q)
	}
	if q := maxQFor(1000); q > 8 || q < 4 {
		t.Errorf("maxQFor(1000) = %d out of sane range", q)
	}
}

func TestComparisonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run in -short mode")
	}
	ds := tinyDS(t)
	suite := NewSuite(ds)
	cols := []Column{{100, 3}, {150, 5}}
	cmp, err := RunComparison("smoke", suite, SystemOneSpecs(false), cols, MetricAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != 7 {
		t.Fatalf("rows = %v", cmp.Rows)
	}
	// Gold row is RazerS3: accuracy identically 100 under both metrics.
	for _, col := range cols {
		c, ok := cmp.Cell("RazerS3", col)
		if !ok || c.AccPct != 100 {
			t.Errorf("gold accuracy at %s = %+v", col, c)
		}
		if c.TimeS <= 0 {
			t.Errorf("gold time at %s = %v", col, c.TimeS)
		}
		// All-mappers high, best-mappers low under §III-A.
		for _, m := range []string{"Hobbes3", "REPUTE-cpu", "CORAL-cpu"} {
			c, _ := cmp.Cell(m, col)
			if c.AccPct < 98 {
				t.Errorf("%s accuracy %v < 98 at %s", m, c.AccPct, col)
			}
		}
		for _, m := range []string{"Yara", "GEM", "BWA-MEM"} {
			c, _ := cmp.Cell(m, col)
			if c.AccPct > 60 {
				t.Errorf("%s accuracy %v suspiciously high under all-locations", m, c.AccPct)
			}
		}
	}
	var buf bytes.Buffer
	cmp.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "REPUTE-cpu") || !strings.Contains(out, "T(s)") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestEnergySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("energy run in -short mode")
	}
	ds := tinyDS(t)
	suite := NewSuite(ds)
	specs := filterSpecs(SystemTwoSpecs(), "Hobbes3", "CORAL-HiKey")
	sec, err := RunEnergy("System 2", 3.5, suite, specs, []Column{{100, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range sec.Rows {
		cell := sec.Cells[i][0]
		if cell.EnergyJ <= 0 || cell.PowerW <= 3.5 || cell.TimeS <= 0 {
			t.Errorf("%s energy cell %+v not populated", row, cell)
		}
		if cell.PowerW > 20 {
			t.Errorf("%s wall power %v absurd for the SoC", row, cell.PowerW)
		}
	}
	var buf bytes.Buffer
	(&EnergyTable{Cols: []Column{{100, 3}}, Sections: []EnergySection{*sec}}).Render(&buf)
	if !strings.Contains(buf.String(), "P(W)") {
		t.Error("energy render missing header")
	}
}

func TestFilterSpecs(t *testing.T) {
	specs := SystemOneSpecs(true)
	got := filterSpecs(specs, "CORAL-cpu", "REPUTE-cpu")
	for _, s := range got {
		if s.Label == "CORAL-cpu" || s.Label == "REPUTE-cpu" {
			t.Errorf("filter kept %s", s.Label)
		}
	}
	if len(got) != len(specs)-2 {
		t.Errorf("filtered %d from %d", len(got), len(specs))
	}
}

func TestPaperDataConsistent(t *testing.T) {
	for _, pt := range []PaperComparison{PaperTable1, PaperTable2, PaperTable3} {
		for _, row := range pt.Rows {
			cells, ok := pt.Cells[row]
			if !ok {
				t.Errorf("%s: row %s missing cells", pt.Title, row)
				continue
			}
			if len(cells) != len(pt.Cols) {
				t.Errorf("%s: row %s has %d cells for %d cols",
					pt.Title, row, len(cells), len(pt.Cols))
			}
			for _, c := range cells {
				if c.TimeS <= 0 || c.AccPct <= 0 || c.AccPct > 100 {
					t.Errorf("%s: row %s implausible cell %+v", pt.Title, row, c)
				}
			}
		}
	}
	for sys, rows := range PaperTable4 {
		if _, ok := PaperIdle[sys]; !ok {
			t.Errorf("no idle power for %s", sys)
		}
		for row, cells := range rows {
			if len(cells) != len(EnergyColumns) {
				t.Errorf("%s/%s: %d energy cells", sys, row, len(cells))
			}
		}
	}
}

func TestCheckShapesHandlesNil(t *testing.T) {
	checks := CheckShapes(nil, nil, nil, nil, nil, nil)
	if len(checks) != 0 {
		t.Errorf("nil inputs produced %d checks", len(checks))
	}
}

func TestFig4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	ds := tinyDS(t)
	s, err := RunFig4(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 8 {
		t.Fatalf("fig4 points = %d", len(s.Points))
	}
	for _, p := range s.Points {
		if p.TimeS <= 0 {
			t.Errorf("point %s has no time", p.Label)
		}
	}
	var buf bytes.Buffer
	s.Render(&buf)
	if !strings.Contains(buf.String(), "Smin=12") {
		t.Error("fig4 render missing labels")
	}
}
