package core

import (
	"fmt"

	"repro/internal/mapper"
)

// MapPairs maps a paired-end read set: both mates run through the normal
// single-end pipeline (so the multi-device split applies unchanged), then
// the per-mate locations are combined into concordant FR pairs within the
// insert band. Fragments with no concordant pair keep their single-end
// mappings in Single1/Single2, as real mappers report discordant mates.
//
// Pairing also rescues ambiguity: a mate that multi-maps inside a repeat
// is pinned by its uniquely-mapping partner.
func (p *Pipeline) MapPairs(reads1, reads2 [][]byte, opt mapper.PairOptions) (*mapper.PairResult, error) {
	if len(reads1) != len(reads2) {
		return nil, fmt.Errorf("core: %d first mates vs %d second mates", len(reads1), len(reads2))
	}
	opt = opt.WithDefaults()
	res1, err := p.Map(reads1, opt.Options)
	if err != nil {
		return nil, fmt.Errorf("core: mate 1: %w", err)
	}
	res2, err := p.Map(reads2, opt.Options)
	if err != nil {
		return nil, fmt.Errorf("core: mate 2: %w", err)
	}

	out := &mapper.PairResult{
		Pairs:   make([][]mapper.Pair, len(reads1)),
		Single1: res1.Mappings,
		Single2: res2.Mappings,
		// The two mate batches run back to back on the same devices.
		SimSeconds: res1.SimSeconds + res2.SimSeconds,
		EnergyJ:    res1.EnergyJ + res2.EnergyJ,
	}
	out.Cost = res1.Cost
	out.Cost.Add(res2.Cost)
	out.Faults = res1.Faults
	out.Faults.Add(res2.Faults)
	for i := range reads1 {
		out.Pairs[i] = mapper.PairUp(
			res1.Mappings[i], res2.Mappings[i],
			len(reads1[i]), len(reads2[i]),
			opt.MinInsert, opt.MaxInsert, opt.MaxLocations)
	}
	return out, nil
}
