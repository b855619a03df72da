// Package gem reimplements the filtration core of the GEM mapper
// (Marco-Sola et al., Nature Methods 2012): adaptive region filtration —
// scanning the read and cutting a seed as soon as its FM-index interval
// shrinks below a threshold, so seed lengths adapt to local repetitiveness
// — followed by Myers verification and best-stratum reporting.
package gem

import (
	"fmt"

	"repro/internal/cl"
	"repro/internal/fmindex"
	"repro/internal/mapper"
)

// regionThreshold is the interval size at which an adaptive region is cut
// (GEM's region granularity).
const regionThreshold = 20

// bestStratumCap bounds the co-optimal locations reported per read,
// modelling GEM's default best+subdominant output limits.
const bestStratumCap = 5

// regionMaxHits discards regions that stayed too frequent even at full
// length (reads inside unresolvable repeats): GEM treats such regions as
// non-filtering rather than flooding verification with their hits.
const regionMaxHits = 256

// Mapper is a GEM-style best-mapper bound to a reference.
type Mapper struct {
	ix  *fmindex.Index
	dev *cl.Device
}

// New creates the mapper on a host device.
func New(ref []byte, dev *cl.Device) (*Mapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("gem: empty reference")
	}
	return &Mapper{ix: fmindex.Build(ref, fmindex.Options{}), dev: dev}, nil
}

// Name implements mapper.Mapper.
func (m *Mapper) Name() string { return "GEM" }

type region struct {
	start, end int
	lo, hi     int
}

// regionsOf cuts the pattern into adaptive regions right-to-left (the
// FM index extends leftwards), appending them to regs: each region grows
// until its interval is at most regionThreshold or empties.
func (m *Mapper) regionsOf(regs []region, pattern []byte, itemCost *cl.Cost) []region {
	end := len(pattern)
	for end > 0 {
		lo, hi := m.ix.Start()
		start := end
		lastLo, lastHi := lo, hi
		for start > 0 {
			nlo, nhi := m.ix.ExtendLeft(pattern[start-1], lo, hi)
			itemCost.FMSteps++
			start--
			if nlo >= nhi {
				lastLo, lastHi = nlo, nhi
				break
			}
			lo, hi = nlo, nhi
			lastLo, lastHi = lo, hi
			if hi-lo <= regionThreshold {
				break
			}
		}
		regs = append(regs, region{start: start, end: end, lo: lastLo, hi: lastHi})
		end = start
	}
	return regs
}

// generator is the adaptive-region filter (mapper.Generator).
type generator struct {
	m       *Mapper
	maxCand int // located candidates per strand
}

// scratch is the generator's worker-private memory.
type scratch struct{ regs []region }

//repute:hotpath
func (g generator) generate(st *mapper.State, pattern []byte, strand byte, cost *cl.Cost) {
	sc := st.Scratch.(*scratch)
	sc.regs = g.m.regionsOf(sc.regs[:0], pattern, cost)
	remaining := g.maxCand
	for _, r := range sc.regs {
		if r.hi-r.lo > regionMaxHits {
			continue
		}
		remaining -= st.Locate(g.m.ix, r.lo, r.hi, remaining, r.start, strand, cost)
	}
}

// Map implements mapper.Mapper.
func (m *Mapper) Map(reads [][]byte, opt mapper.Options) (*mapper.Result, error) {
	return mapper.Run(m.dev, m.ix.Text(), reads, opt, func(b *mapper.Batch) (*cl.Kernel, error) {
		b.Name, b.PrivateBytes = "gem", 512
		b.NewScratch = func() any { return new(scratch) }
		b.Generate = generator{m: m, maxCand: 2 * b.Policy.MaxLoc}.generate
		// GEM verifies every candidate and reports the best stratum,
		// capped like the real tool's best+subdominant output.
		b.Policy = mapper.Policy{BestOnly: true, MaxLoc: min(b.Policy.MaxLoc, bestStratumCap)}
		return b.Kernel(), nil
	})
}
