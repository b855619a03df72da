package bench

import (
	"fmt"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/mapper/bwamem"
	"repro/internal/mapper/coral"
	"repro/internal/mapper/gem"
	"repro/internal/mapper/hobbes3"
	"repro/internal/mapper/razers3"
	"repro/internal/mapper/yara"
)

// Spec names a mapper variant and how to build and configure it.
type Spec struct {
	Label string
	// Gold marks the accuracy reference (RazerS3, as in the paper).
	Gold bool
	// Build constructs the mapper once per suite; it is cached by label.
	Build func(ds *Dataset) (mapper.Mapper, error)
	// Tune adjusts the base options for this mapper (location caps,
	// best mode, ...). Nil keeps the base options.
	Tune func(o mapper.Options) mapper.Options
}

// maxQFor keeps hash-index directories proportionate to the reference.
func maxQFor(refLen int) int {
	q := 4
	for n := refLen; n > 256 && q < 11; n >>= 2 {
		q++
	}
	return q
}

// splitAll is the CPU + 2 GPU workload split used for the "-all" variants
// (the paper offloads 480k/1M reads to the GPUs at n=100, δ=3).
var splitAll = []float64{0.52, 0.24, 0.24}

// splitHiKey balances the A73 and A53 clusters by their clock ratio.
var splitHiKey = []float64{0.57, 0.43}

// goldTune is the paper's RazerS3 configuration: at most 100 locations
// per read (other mappers report up to 1000).
func goldTune(o mapper.Options) mapper.Options {
	o.MaxLocations = 100
	return o
}

// SystemOneSpecs are the Table I/II rows: baselines on the host CPU, the
// OpenCL mappers on the CPU device, with optional "-all" variants across
// CPU + both GPUs.
func SystemOneSpecs(includeAll bool) []Spec {
	specs := []Spec{
		{
			Label: "RazerS3", Gold: true,
			Build: func(ds *Dataset) (mapper.Mapper, error) {
				return razers3.New(ds.Ref, cl.SystemOneHost(), maxQFor(len(ds.Ref)))
			},
			Tune: goldTune,
		},
		{
			Label: "Hobbes3",
			Build: func(ds *Dataset) (mapper.Mapper, error) {
				return hobbes3.New(ds.Ref, cl.SystemOneHost(), maxQFor(len(ds.Ref)))
			},
		},
		{
			Label: "Yara",
			Build: func(ds *Dataset) (mapper.Mapper, error) {
				return yara.New(ds.Ref, cl.SystemOneHost())
			},
		},
		{
			Label: "BWA-MEM",
			Build: func(ds *Dataset) (mapper.Mapper, error) {
				return bwamem.New(ds.Ref, cl.SystemOneHost())
			},
		},
		{
			Label: "GEM",
			Build: func(ds *Dataset) (mapper.Mapper, error) {
				return gem.New(ds.Ref, cl.SystemOneHost())
			},
		},
		{
			Label: "CORAL-cpu",
			Build: func(ds *Dataset) (mapper.Mapper, error) {
				return coral.New(ds.Ref, []*cl.Device{cl.SystemOneCPU()}, nil, "CORAL-cpu")
			},
		},
		{
			Label: "REPUTE-cpu",
			Build: func(ds *Dataset) (mapper.Mapper, error) {
				return core.New(ds.Ref, []*cl.Device{cl.SystemOneCPU()}, core.Config{Name: "REPUTE-cpu"})
			},
		},
	}
	if includeAll {
		specs = append(specs,
			Spec{
				Label: "CORAL-all",
				Build: func(ds *Dataset) (mapper.Mapper, error) {
					return coral.New(ds.Ref, cl.SystemOne().Devices, splitAll, "CORAL-all")
				},
			},
			Spec{
				Label: "REPUTE-all",
				Build: func(ds *Dataset) (mapper.Mapper, error) {
					return core.New(ds.Ref, cl.SystemOne().Devices, core.Config{
						Name: "REPUTE-all", Split: splitAll,
					})
				},
			},
		)
	}
	return specs
}

// SystemTwoSpecs are the Table III rows: the four mappers that run on the
// HiKey970 (§III-C), baselines on all eight cores, OpenCL mappers split
// across the two clusters.
func SystemTwoSpecs() []Spec {
	return []Spec{
		{
			Label: "RazerS3", Gold: true,
			Build: func(ds *Dataset) (mapper.Mapper, error) {
				return razers3.New(ds.Ref, cl.HiKeyHost(), maxQFor(len(ds.Ref)))
			},
			Tune: goldTune,
		},
		{
			Label: "Hobbes3",
			Build: func(ds *Dataset) (mapper.Mapper, error) {
				return hobbes3.New(ds.Ref, cl.HiKeyHost(), maxQFor(len(ds.Ref)))
			},
		},
		{
			Label: "CORAL-HiKey",
			Build: func(ds *Dataset) (mapper.Mapper, error) {
				return coral.New(ds.Ref, cl.HiKey970().Devices, splitHiKey, "CORAL-HiKey")
			},
		},
		{
			Label: "REPUTE-HiKey",
			Build: func(ds *Dataset) (mapper.Mapper, error) {
				return core.New(ds.Ref, cl.HiKey970().Devices, core.Config{
					Name: "REPUTE-HiKey", Split: splitHiKey,
				})
			},
		},
	}
}

// Suite caches constructed mappers for one dataset.
type Suite struct {
	DS      *Dataset
	mappers map[string]mapper.Mapper
}

// NewSuite wraps a dataset.
func NewSuite(ds *Dataset) *Suite {
	return &Suite{DS: ds, mappers: map[string]mapper.Mapper{}}
}

// Mapper builds (or returns the cached) mapper for a spec.
func (s *Suite) Mapper(spec Spec) (mapper.Mapper, error) {
	if m, ok := s.mappers[spec.Label]; ok {
		return m, nil
	}
	m, err := spec.Build(s.DS)
	if err != nil {
		return nil, fmt.Errorf("bench: building %s: %w", spec.Label, err)
	}
	s.mappers[spec.Label] = m
	return m, nil
}

// baseOptions are the shared run options for a column.
func baseOptions(col Column) mapper.Options {
	return mapper.Options{
		MaxErrors:    col.Errors,
		MaxLocations: 1000,
		MinSeedLen:   0, // mappers pick their defaults
	}
}
