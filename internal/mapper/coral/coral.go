// Package coral builds the CORAL comparison mapper (Maheshwari et al.,
// IEEE/ACM TCBB 2019): the same OpenCL kernel flow as REPUTE but with the
// serial variable-length k-mer heuristic instead of DP filtration — the
// two tools share their pipeline in the paper exactly this way.
package coral

import (
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/seed"
)

// New returns a CORAL mapper over ref on the given devices. split follows
// core.Config.Split semantics; name labels the variant ("CORAL-cpu",
// "CORAL-all", "CORAL-HiKey").
func New(ref []byte, devices []*cl.Device, split []float64, name string) (*core.Pipeline, error) {
	if name == "" {
		name = "CORAL"
	}
	return core.New(ref, devices, core.Config{
		Name:     name,
		Selector: seed.CORAL{},
		Split:    split,
	})
}
