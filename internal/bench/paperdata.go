package bench

// Paper-reported numbers (DATE 2020, Tables I-IV), embedded so the
// experiment tooling can print paper-vs-measured comparisons and the
// markdown report can record them. A value of -1 marks entries the paper
// leaves blank or merges (BWA-MEM is reported once per read length).

// PaperCell mirrors CellTA for paper data.
type PaperCell struct {
	TimeS  float64
	AccPct float64
}

// PaperComparison is a paper table in the same shape as Comparison.
type PaperComparison struct {
	Title string
	Cols  []Column
	Rows  []string
	Cells map[string][]PaperCell // by row label, indexed like Cols
}

// PaperTable1 is Table I (homogeneous, CPU only, §III-A accuracy).
var PaperTable1 = PaperComparison{
	Title: "Paper Table I (homogeneous scenario)",
	Cols:  PaperColumns,
	Rows:  []string{"RazerS3", "Hobbes3", "Yara", "BWA-MEM", "GEM", "CORAL-cpu", "REPUTE-cpu"},
	Cells: map[string][]PaperCell{
		"RazerS3":    {{26.7, 100}, {42.6, 100}, {65.7, 100}, {30.7, 100}, {50.6, 100}, {91.3, 100}},
		"Hobbes3":    {{21.6, 100}, {18.6, 100}, {16.6, 100}, {58.4, 100}, {50, 100}, {40.7, 100}},
		"Yara":       {{10, 5.22}, {21, 4.51}, {25.5, 4.00}, {38.2, 5.27}, {116.5, 4.54}, {321.4, 4.14}},
		"BWA-MEM":    {{82, 39.9}, {82, 39.9}, {82, 39.9}, {159, 30.82}, {159, 30.82}, {159, 30.82}},
		"GEM":        {{22, 4.88}, {22, 4.14}, {21, 3.59}, {56, 4.74}, {54, 4.15}, {53, 3.68}},
		"CORAL-cpu":  {{7.03, 99.96}, {16.34, 99.91}, {32.29, 99.87}, {17.31, 100}, {37.36, 100}, {66.35, 100}},
		"REPUTE-cpu": {{7.49, 99.99}, {14.88, 99.98}, {24.92, 99.94}, {13.75, 100}, {21.1, 100}, {33.4, 99.99}},
	},
}

// PaperTable2 is Table II (heterogeneous, CPU + 2 GPUs, §III-B accuracy).
var PaperTable2 = PaperComparison{
	Title: "Paper Table II (heterogeneous scenario)",
	Cols:  PaperColumns,
	Rows:  []string{"RazerS3", "Hobbes3", "Yara", "BWA-MEM", "GEM", "CORAL-all", "REPUTE-all"},
	Cells: map[string][]PaperCell{
		"RazerS3":    {{26.7, 100}, {42.6, 100}, {65.7, 100}, {30.7, 100}, {50.6, 100}, {91.3, 100}},
		"Hobbes3":    {{20.4, 100}, {16.9, 100}, {14.6, 100}, {58.2, 100}, {49.5, 100}, {40.5, 100}},
		"Yara":       {{10, 99.2}, {21, 99.4}, {25.5, 99.5}, {38.2, 100}, {116.5, 100}, {321.4, 100}},
		"BWA-MEM":    {{82.2, 97.16}, {82.2, 97.16}, {82.2, 97.16}, {159.1, 95.09}, {159.1, 95.09}, {159.1, 95.09}},
		"GEM":        {{22, 92.9}, {22, 91.4}, {22, 89.4}, {54, 90.2}, {54, 91.3}, {53, 89.1}},
		"CORAL-all":  {{5.24, 99.98}, {9.74, 99.97}, {24.73, 99.98}, {12.2, 100}, {29.47, 100}, {56.05, 100}},
		"REPUTE-all": {{5.27, 99.99}, {12.65, 99.99}, {19.8, 99.9}, {7.87, 100}, {12.9, 100}, {23.9, 100}},
	},
}

// PaperTable3 is Table III (HiKey970 embedded scenario).
var PaperTable3 = PaperComparison{
	Title: "Paper Table III (embedded scenario, HiKey970)",
	Cols:  PaperColumns,
	Rows:  []string{"RazerS3", "Hobbes3", "CORAL-HiKey", "REPUTE-HiKey"},
	Cells: map[string][]PaperCell{
		"RazerS3":      {{89.1, 100}, {127.5, 100}, {222.3, 100}, {96.8, 100}, {168.1, 100}, {328.1, 100}},
		"Hobbes3":      {{54.06, 100}, {47.37, 100}, {46.68, 100}, {89.95, 100}, {78.21, 100}, {69.34, 100}},
		"CORAL-HiKey":  {{16.41, 100}, {38.39, 100}, {67.48, 100}, {38.65, 100}, {78.50, 100}, {134.1, 100}},
		"REPUTE-HiKey": {{17.47, 99.99}, {35.35, 99.99}, {60.61, 99.99}, {49.44, 100}, {56.3, 100}, {84.72, 100}},
	},
}

// PaperEnergyCell mirrors EnergyCell for paper data.
type PaperEnergyCell struct {
	PowerW  float64
	EnergyJ float64
}

// PaperTable4 holds Table IV, keyed by system then row label; cells are
// indexed like EnergyColumns.
var PaperTable4 = map[string]map[string][]PaperEnergyCell{
	"System 1": {
		"RazerS3":    {{241, 2162.7}, {243, 2548.1}},
		"Hobbes3":    {{254, 1917.6}, {258, 5703.6}},
		"CORAL-cpu":  {{365, 1440.1}, {371, 3652.3}},
		"CORAL-all":  {{454, 1540.7}, {461, 3673.1}},
		"REPUTE-cpu": {{354, 1691.5}, {358, 2859.1}},
		"REPUTE-all": {{455, 1554.7}, {490, 2597.1}},
	},
	"System 2": {
		"RazerS3":      {{7.5, 356.3}, {8.6, 493.5}},
		"Hobbes3":      {{7.5, 216.2}, {8.4, 440.8}},
		"CORAL-HiKey":  {{8.5, 82.06}, {9.1, 216.5}},
		"REPUTE-HiKey": {{8, 78.6}, {7.8, 212.6}},
	},
}

// PaperIdle holds the idle powers the paper subtracts.
var PaperIdle = map[string]float64{"System 1": 160, "System 2": 3.5}
