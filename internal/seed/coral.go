package seed

import "repro/internal/fmindex"

// CORAL is the serial heuristic seed selector of the authors' earlier
// OpenCL mapper (Maheshwari et al., TCBB 2019): seeds are chosen one at a
// time from the right end of the read, each grown leftwards until its
// candidate count falls to MaxSeedFreq or its length budget runs out.
// No global optimisation is performed — the paper's Table I/II gap between
// CORAL and REPUTE on repetitive reads comes from exactly this.
type CORAL struct{}

// DefaultMaxSeedFreq is the growth-stop threshold used when Params does
// not provide one. CORAL keeps growing a k-mer while it is more frequent
// than this; the lenient default mirrors the serial heuristic's "good
// enough" stopping rule, whose per-seed overshoot against the DP optimum
// compounds as δ (and so the seed count) grows — the widening CORAL →
// REPUTE gap across Table I's columns.
const DefaultMaxSeedFreq = 32

// Name implements Selector.
func (CORAL) Name() string { return "coral-heuristic" }

// Select implements Selector.
func (CORAL) Select(ix *fmindex.Index, read []byte, p Params) (Selection, error) {
	n := len(read)
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	smin := p.MinSeedLen
	if smin < 1 {
		smin = 1
	}
	maxFreq := p.MaxSeedFreq
	if maxFreq <= 0 {
		maxFreq = DefaultMaxSeedFreq
	}
	// The real tool selects k-mer lengths from a bounded range.
	maxLen := 2 * smin
	parts := p.Errors + 1
	if n < parts*smin {
		// Degrade gracefully: shrink the minimum so the partition exists.
		smin = n / parts
		if smin < 1 {
			smin = 1
		}
	}

	seeds := make([]Seed, parts)
	steps := 0
	end := n
	for j := parts - 1; j >= 0; j-- {
		if j == 0 {
			// The leftmost seed takes whatever remains.
			lo, hi, st := searchSeed(ix, read, 0, end)
			steps += st
			seeds[0] = Seed{Start: 0, End: end, Lo: lo, Hi: hi}
			break
		}
		// Seeds 1..j still need smin positions each to the left.
		minStart := j * smin
		lo, hi := ix.Start()
		start := end
		bestLo, bestHi := lo, hi
		for start > minStart && end-start < maxLen {
			start--
			lo, hi = ix.ExtendLeft(read[start], lo, hi)
			steps++
			bestLo, bestHi = lo, hi
			length := end - start
			if lo >= hi {
				// No occurrences at all: a perfect filter, stop.
				break
			}
			if length >= smin && hi-lo <= maxFreq {
				break
			}
		}
		seeds[j] = Seed{Start: start, End: end, Lo: bestLo, Hi: bestHi}
		end = start
	}
	return Selection{
		Seeds:           seeds,
		TotalCandidates: totalOf(seeds),
		FMSteps:         steps,
		PeakMemBytes:    parts*16 + 32,
	}, nil
}
