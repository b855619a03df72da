// Package seed implements the filtration stage of read mapping: choosing
// the δ+1 k-mers (pigeonhole principle) whose exact-match candidate
// locations are verified downstream.
//
// Four strategies are provided, mirroring the paper's comparison:
//
//   - Uniform: equal-length split, the textbook pigeonhole baseline.
//   - OSS: the full Optimal Seed Solver dynamic program (Xin et al.,
//     Bioinformatics 2016) over the entire read.
//   - REPUTE: the paper's contribution — the same optimality, but with the
//     DP exploration space clipped to the (n − Smin·(δ+1))-wide window
//     that a minimum seed length Smin induces, two live DP rows, and a
//     compact backtracking matrix. This is what makes the kernel fit in
//     OpenCL private/local memory.
//   - CORAL: the serial heuristic of the authors' earlier mapper — grow
//     each k-mer until its candidate count drops below a threshold,
//     without global optimisation.
//
// Every selector reports operation counts (FM-index steps, DP cells) and
// an estimated peak working-set size; the simulated OpenCL devices charge
// time and check memory budgets from these.
package seed

import (
	"fmt"

	"repro/internal/fmindex"
)

// Seed is one selected k-mer: read coordinates plus its FM interval.
type Seed struct {
	Start, End int // read coordinates, half open
	Lo, Hi     int // FM-index SA interval; Hi <= Lo means no occurrences
}

// Count returns the number of candidate locations the seed contributes.
func (s Seed) Count() int {
	if s.Hi <= s.Lo {
		return 0
	}
	return s.Hi - s.Lo
}

// Len returns the seed length.
func (s Seed) Len() int { return s.End - s.Start }

// Selection is the output of a filtration strategy for one read.
type Selection struct {
	Seeds           []Seed
	TotalCandidates int
	// Accounting for the device cost model.
	FMSteps      int // single-character FM backward-search extensions
	DPCells      int // DP cells evaluated
	PeakMemBytes int // peak working-set estimate of the method
}

// Params configure a selection.
type Params struct {
	Errors     int // δ: the read is split into δ+1 seeds
	MinSeedLen int // Smin; ignored by Uniform and OSS
	// MaxSeedFreq is CORAL's stop-growing threshold: a seed stops
	// extending once its candidate count is at or below this value.
	MaxSeedFreq int
}

func (p Params) validate(readLen int) error {
	if p.Errors < 0 {
		return fmt.Errorf("seed: negative error count %d", p.Errors)
	}
	if readLen < p.Errors+1 {
		return fmt.Errorf("seed: read length %d cannot host %d seeds", readLen, p.Errors+1)
	}
	return nil
}

// Selector is a filtration strategy.
type Selector interface {
	Name() string
	Select(ix *fmindex.Index, read []byte, p Params) (Selection, error)
}

// freqWalker computes candidate counts for seeds sharing an end position
// by walking the FM index leftwards once. counts[k] is the count of
// read[end-1-k : end], i.e. the seed of length k+1.
type freqWalker struct {
	ix      *fmindex.Index
	fmSteps int
}

// walk fills counts for seed lengths 1..maxLen ending at end (exclusive).
// Extensions stop charging FM steps once the interval is empty (all longer
// seeds then have zero occurrences). It also records the SA interval per
// length in los/his when those slices are non-nil.
func (w *freqWalker) walk(read []byte, end, maxLen int, counts []int32, los, his []int32) {
	lo, hi := w.ix.Start()
	empty := false
	for k := 0; k < maxLen; k++ {
		if !empty {
			lo, hi = w.ix.ExtendLeft(read[end-1-k], lo, hi)
			w.fmSteps++
			if lo >= hi {
				empty = true
			}
		}
		if empty {
			counts[k] = 0
			if los != nil {
				los[k], his[k] = 0, 0
			}
		} else {
			counts[k] = int32(hi - lo)
			if los != nil {
				los[k], his[k] = int32(lo), int32(hi)
			}
		}
	}
}

// searchSeed runs a plain backward search for read[start:end] and returns
// the interval plus the number of FM steps spent.
func searchSeed(ix *fmindex.Index, read []byte, start, end int) (lo, hi, steps int) {
	lo, hi = ix.Start()
	for i := end - 1; i >= start; i-- {
		lo, hi = ix.ExtendLeft(read[i], lo, hi)
		steps++
		if lo >= hi {
			return lo, hi, steps
		}
	}
	return lo, hi, steps
}

// totalOf sums candidate counts.
func totalOf(seeds []Seed) int {
	t := 0
	for _, s := range seeds {
		t += s.Count()
	}
	return t
}

// DPPeakMem estimates the private working set (bytes per work item) a
// selector's kernel needs for reads of length n — the figure a host must
// declare before launching a static OpenCL 1.2 kernel, and the quantity
// the paper's Smin trade-off controls. The REPUTE estimate mirrors
// dpSelect's actual allocations; OSS is the same shape over the whole
// read; the serial strategies carry only a few registers.
func DPPeakMem(n, errors, smin int, sel Selector) int {
	const fixed = 256 // interval registers, verification window bookkeeping
	if smin < 1 {
		smin = 1
	}
	switch sel.(type) {
	case REPUTE:
		w := n - (errors+1)*smin
		if w < 0 {
			w = 0
		}
		return 2*(w+1)*4 + errors*(w+1)*2 + (smin+w)*4 + fixed
	case OSS:
		return 2*n*4 + errors*n*2 + n*4 + fixed
	default:
		return fixed
	}
}

// Uniform splits the read into δ+1 nearly equal k-mers.
type Uniform struct{}

// Name implements Selector.
func (Uniform) Name() string { return "uniform" }

// Select implements Selector.
func (Uniform) Select(ix *fmindex.Index, read []byte, p Params) (Selection, error) {
	if err := p.validate(len(read)); err != nil {
		return Selection{}, err
	}
	n := len(read)
	parts := p.Errors + 1
	seeds := make([]Seed, parts)
	steps := 0
	for i := 0; i < parts; i++ {
		start := i * n / parts
		end := (i + 1) * n / parts
		lo, hi, st := searchSeed(ix, read, start, end)
		steps += st
		seeds[i] = Seed{Start: start, End: end, Lo: lo, Hi: hi}
	}
	return Selection{
		Seeds:           seeds,
		TotalCandidates: totalOf(seeds),
		FMSteps:         steps,
		PeakMemBytes:    parts * 16,
	}, nil
}
