// Package bwamem reimplements the seeding/extension skeleton of BWA-MEM
// (Li & Durbin, Bioinformatics 2010; MEM variant 2013): greedy maximal
// exact matches found by FM-index backward extension from spaced anchors,
// candidate chaining by diagonal, banded-DP extension, and primary-only
// reporting. As a best-mapper that emits a single alignment per read it
// scores low on the paper's all-locations metric and high on any-best —
// the contrast Tables I and II show.
package bwamem

import (
	"fmt"
	"slices"

	"repro/internal/align"
	"repro/internal/cl"
	"repro/internal/fmindex"
	"repro/internal/mapper"
)

// minSeedLen mirrors BWA-MEM's default -k 19.
const minSeedLen = 19

// maxHitsPerSeed skips seeds more frequent than this (BWA's -c filter).
const maxHitsPerSeed = 200

// bandWidth mirrors BWA-MEM's default -w 100: every chain extension runs
// a banded Smith-Waterman of this half-width regardless of δ, which is
// why BWA's time is flat in δ but high in absolute terms (Table I).
const bandWidth = 100

// Mapper is a BWA-MEM-style best-mapper bound to a reference.
type Mapper struct {
	ix  *fmindex.Index
	dev *cl.Device
}

// New creates the mapper on a host device.
func New(ref []byte, dev *cl.Device) (*Mapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("bwamem: empty reference")
	}
	return &Mapper{ix: fmindex.Build(ref, fmindex.Options{}), dev: dev}, nil
}

// Name implements mapper.Mapper.
func (m *Mapper) Name() string { return "BWA-MEM" }

// seedsOf finds maximal exact matches by backward extension from anchor
// end positions spread over the read, appending them to seeds.
func (m *Mapper) seedsOf(seeds []memSeed, pattern []byte, anchors int, itemCost *cl.Cost) []memSeed {
	n := len(pattern)
	step := n / anchors
	if step < 1 {
		step = 1
	}
	for end := n; end >= minSeedLen; end -= step {
		lo, hi := m.ix.Start()
		start := end
		bestLo, bestHi, bestStart := 0, 0, end
		for start > 0 {
			nlo, nhi := m.ix.ExtendLeft(pattern[start-1], lo, hi)
			itemCost.FMSteps++
			if nlo >= nhi {
				break
			}
			lo, hi = nlo, nhi
			start--
			bestLo, bestHi, bestStart = lo, hi, start
		}
		if end-bestStart >= minSeedLen && bestHi > bestLo {
			seeds = append(seeds, memSeed{start: bestStart, end: end, lo: bestLo, hi: bestHi})
		}
	}
	return seeds
}

type memSeed struct {
	start, end int
	lo, hi     int
}

// scratch is the work item's worker-private memory.
type scratch struct {
	seeds  []memSeed
	window []byte
	// seen holds the sorted diagonal-bucket keys already extended for
	// the current strand — the chain dedup, kept as a slice because the
	// kernel contract has no maps.
	seen []int32
	// ver recovers match starts; bound to the strand's pattern by the
	// first chain of the strand that needs it.
	ver align.Verifier
}

// generate is the MEM seeding (mapper.Generator): the occurrences of
// every sufficiently rare maximal exact match, in seed order.
//
//repute:hotpath
func (m *Mapper) generate(st *mapper.State, pattern []byte, strand byte, cost *cl.Cost) {
	sc := st.Scratch.(*scratch)
	// BWA-MEM re-seeds roughly every ~20 bp along the read.
	sc.seeds = m.seedsOf(sc.seeds[:0], pattern, len(pattern)/20+1, cost)
	for _, sd := range sc.seeds {
		if sd.hi-sd.lo <= maxHitsPerSeed {
			st.Locate(m.ix, sd.lo, sd.hi, sd.start, strand, cost)
		}
	}
}

// extender is BWA-MEM's own work item. Unlike the Myers-verifying
// mappers it does not dedup and verify a candidate set: it extends chains
// with banded DP in arrival order and keeps the first best, so its
// tie-breaking depends on that order and it shares only the generator
// plumbing with them.
type extender struct {
	m      *Mapper
	maxErr int
}

//repute:hotpath
func (e extender) mapRead(st *mapper.State, read []byte, cost *cl.Cost) []mapper.Mapping {
	sc := st.Scratch.(*scratch)
	text, n := e.m.ix.Text(), len(read)
	best := mapper.Mapping{Dist: uint8(e.maxErr) + 1}
	strand, verStrand := byte(0), byte(0)
	for _, cand := range st.Generate(e.m.generate, read, cost) {
		if cand.Strand != strand {
			strand = cand.Strand
			sc.seen = sc.seen[:0]
		}
		key := cand.Pos / int32(e.maxErr+1)
		at, dup := slices.BinarySearch(sc.seen, key)
		if dup {
			continue
		}
		sc.seen = slices.Insert(sc.seen, at, key)
		cost.Candidates++
		lo, hi, inText := mapper.Window(cand.Pos, n, e.maxErr, text.Len())
		if !inText {
			continue
		}
		if cap(sc.window) < hi-lo {
			sc.window = make([]byte, hi-lo)
		}
		win := text.SliceInto(sc.window, lo, hi)
		pattern := st.Pattern(read, strand)
		// Full-bandwidth banded SW extension per chain, computed as the
		// banded Myers scan, whose band is the same cut-off.
		cost.DPCells += int64((2*bandWidth + 1) * n)
		if verStrand != strand {
			sc.ver.Reset(pattern)
			verStrand = strand
		}
		match, ok := sc.ver.Verify(win, e.maxErr)
		if !ok {
			continue
		}
		cost.Verified++
		if uint8(match.Dist) >= best.Dist {
			continue
		}
		// Recover the start with a Myers reverse pass.
		cost.VerifyWords += int64(align.BandWords(n, match.Dist, match.End))
		best = mapper.Mapping{Pos: int32(lo + match.Start), Strand: strand, Dist: uint8(match.Dist)}
	}
	if int(best.Dist) > e.maxErr {
		return nil
	}
	return []mapper.Mapping{best}
}

// Map implements mapper.Mapper.
func (m *Mapper) Map(reads [][]byte, opt mapper.Options) (*mapper.Result, error) {
	return mapper.Run(m.dev, m.ix.Text(), reads, opt, func(b *mapper.Batch) (*cl.Kernel, error) {
		if b.Prefilter != mapper.PrefilterOff {
			return nil, fmt.Errorf("bwamem: prefilter %q is not supported: chain extension has no Myers verification stage to filter for", b.Prefilter)
		}
		b.Name, b.PrivateBytes = "bwamem", 2048
		// The per-seed maxHitsPerSeed skip is BWA-MEM's only locate bound.
		b.Policy.Locate = 0
		b.NewScratch = func() any { return new(scratch) }
		return b.Fused(extender{m: m, maxErr: b.MaxErrors}.mapRead), nil
	})
}
