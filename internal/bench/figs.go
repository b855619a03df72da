package bench

import (
	"fmt"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/fmindex"
	"repro/internal/mapper"
)

// SeriesPoint is one measurement of a figure sweep.
type SeriesPoint struct {
	X     float64
	TimeS float64
	Label string
}

// Series is a figure result.
type Series struct {
	Title  string
	XLabel string
	Points []SeriesPoint
	// Shape is the paper's sentence on the figure's shape, rendered
	// under the series.
	Shape string
}

// RunFig3 reproduces Fig. 3: mapping time for different CPU/GPU workload
// distributions at (n=150, δ=5) and minimum k-mer length 22. The X axis
// is the number of reads mapped by each GPU; the remainder goes to the
// CPU. The leftmost point is CPU-only, the rightmost all-GPU.
func RunFig3(ds *Dataset) (*Series, error) {
	set, ok := ds.Sets[150]
	if !ok {
		return nil, fmt.Errorf("bench: dataset lacks 150-bp reads")
	}
	ix := fmindex.Build(ds.Ref, fmindex.Options{})
	devices := cl.SystemOne().Devices
	s := &Series{
		Title:  "Fig. 3: time vs reads offloaded per GPU (n=150, δ=5, Smin=22)",
		XLabel: "reads per GPU",
		Shape:  "Paper Fig. 3 shape: time falls as reads move to the GPUs, then flattens/rises as a GPU becomes the bottleneck.",
	}
	n := len(set.Reads)
	opt := mapper.Options{MaxErrors: 5, MaxLocations: 100, MinSeedLen: 22}
	for _, fracPerGPU := range []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50} {
		split := []float64{1 - 2*fracPerGPU, fracPerGPU, fracPerGPU}
		p, err := core.NewFromIndex(ix, devices, core.Config{Name: "REPUTE-all", Split: split})
		if err != nil {
			return nil, err
		}
		res, err := p.Map(set.Reads, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: fig3 at %.0f%%/GPU: %w", 100*fracPerGPU, err)
		}
		perGPU := float64(n) * fracPerGPU
		s.Points = append(s.Points, SeriesPoint{
			X:     perGPU,
			TimeS: res.SimSeconds,
			Label: fmt.Sprintf("%d", int(perGPU)),
		})
	}
	return s, nil
}

// RunFig4 reproduces Fig. 4: mapping time for different minimum k-mer
// lengths with a fixed workload distribution (CPU 82%, 9% per GPU) at
// (n=100, δ=4) — the paper's 820,000/90,000/90,000 read split.
func RunFig4(ds *Dataset) (*Series, error) {
	set, ok := ds.Sets[100]
	if !ok {
		return nil, fmt.Errorf("bench: dataset lacks 100-bp reads")
	}
	ix := fmindex.Build(ds.Ref, fmindex.Options{})
	devices := cl.SystemOne().Devices
	p, err := core.NewFromIndex(ix, devices, core.Config{
		Name: "REPUTE-all", Split: []float64{0.82, 0.09, 0.09},
	})
	if err != nil {
		return nil, err
	}
	s := &Series{
		Title:  "Fig. 4: time vs minimum k-mer length (n=100, δ=4, CPU 82% / GPU 9%+9%)",
		XLabel: "min k-mer length",
		Shape:  "Paper Fig. 4 shape: U-curve — small Smin pays in DP filtration time, large Smin pays in candidate verification.",
	}
	// Small Smin pays in DP exploration (the left rise), large Smin pays
	// in candidate verification (the right rise at 20, as in the paper).
	for _, smin := range []int{8, 9, 10, 12, 14, 16, 18, 20} {
		opt := mapper.Options{MaxErrors: 4, MaxLocations: 1000, MinSeedLen: smin}
		res, err := p.Map(set.Reads, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: fig4 at Smin=%d: %w", smin, err)
		}
		s.Points = append(s.Points, SeriesPoint{
			X:     float64(smin),
			TimeS: res.SimSeconds,
			Label: fmt.Sprintf("Smin=%d", smin),
		})
	}
	return s, nil
}
