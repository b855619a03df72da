// Package bench is the paper reproduction: it rebuilds Tables I-IV and
// Figs 3/4 of the paper's evaluation section on synthetic workloads at a
// configurable scale, on the simulated OpenCL platforms from internal/cl,
// checks the paper's qualitative claims against them (CheckShapes) and
// renders each result once, in markdown, beside the paper's numbers; the
// pre-alignment filter's selector×δ sweep rides along because it, too, is
// all simulated clock.
// cmd/experiments is its CLI. Wall-clock and per-layer measurement is not
// done here: that is the benchmark/ harness at the module root.
package bench

import (
	"fmt"

	"repro/internal/simulate"
)

// Scale sets the workload size. The paper maps 1M reads per set against
// chromosome 21 (46.7 Mbp); the default scales keep laptop runtimes while
// preserving the k-mer frequency regime via the repeat generator.
type Scale struct {
	Name        string
	RefLen      int
	ReadsPerSet int
}

// Predefined scales.
var (
	// Tiny is for unit tests and smoke runs.
	Tiny = Scale{Name: "tiny", RefLen: 200_000, ReadsPerSet: 400}
	// Small is the cmd/experiments default.
	Small = Scale{Name: "small", RefLen: 1_000_000, ReadsPerSet: 2000}
	// Medium gives smoother accuracy percentages.
	Medium = Scale{Name: "medium", RefLen: 4_000_000, ReadsPerSet: 10_000}
	// Full is the paper's nominal workload (hours of runtime).
	Full = Scale{Name: "full", RefLen: 46_709_983, ReadsPerSet: 1_000_000}
)

// ScaleByName resolves a -scale flag value: a predefined name, or a
// custom "REFLEN:READS" pair (e.g. "4000000:3500").
func ScaleByName(name string) (Scale, error) {
	for _, s := range []Scale{Tiny, Small, Medium, Full} {
		if s.Name == name {
			return s, nil
		}
	}
	var refLen, reads int
	if n, err := fmt.Sscanf(name, "%d:%d", &refLen, &reads); n == 2 && err == nil && refLen > 0 && reads > 0 {
		return Scale{Name: name, RefLen: refLen, ReadsPerSet: reads}, nil
	}
	return Scale{}, fmt.Errorf("bench: unknown scale %q (tiny, small, medium, full, or REFLEN:READS)", name)
}

// Dataset is a generated reference plus the two read sets.
type Dataset struct {
	Scale Scale
	Ref   []byte
	// Sets is keyed by read length (100 for the ERR012100 stand-in,
	// 150 for SRR826460).
	Sets map[int]simulate.ReadSet
}

// BuildDataset generates the chr21-like reference and both read sets.
func BuildDataset(sc Scale, seed int64) (*Dataset, error) {
	ref := simulate.Reference(simulate.Chr21Like(sc.RefLen, seed))
	ds := &Dataset{Scale: sc, Ref: ref, Sets: map[int]simulate.ReadSet{}}
	for _, prof := range []simulate.ReadProfile{simulate.ERR012100, simulate.SRR826460} {
		set, err := simulate.Reads(ref, sc.ReadsPerSet, prof, seed+int64(prof.Length))
		if err != nil {
			return nil, err
		}
		ds.Sets[prof.Length] = set
	}
	return ds, nil
}

// Column is one (read length, error budget) experiment configuration.
type Column struct {
	ReadLen, Errors int
}

func (c Column) String() string { return fmt.Sprintf("n=%d δ=%d", c.ReadLen, c.Errors) }

// PaperColumns are the six configurations of Tables I-III.
var PaperColumns = []Column{
	{100, 3}, {100, 4}, {100, 5},
	{150, 5}, {150, 6}, {150, 7},
}

// EnergyColumns are the two configurations of Table IV.
var EnergyColumns = []Column{{100, 3}, {150, 5}}
