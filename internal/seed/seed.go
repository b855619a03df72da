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
	"slices"

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

// walker is the leftward frequency walks of one selection: the walk from
// an end e, kept as resumable state — the interval of read[e-k:e] for the
// length k reached so far — so that it is extended only as far as the DP
// asks, and a memo the walks of every end share (DESIGN.md §4 "Shared
// walks"). at[s] holds an interval stored for start s, of read[s:e] for
// some end e, and at[s].linked says at[s-1] is ExtendLeft(read[s-1], at[s]).
// The current walk always holds the interval stored at its start, so a
// step whose link is set takes at[s-1] without a rank: ExtendLeft depends
// only on the base and the interval. One walk is in flight at a time.
//
// Every step is charged one FM step until the interval is empty, whether
// it ranked or took a link; every longer seed then has no occurrence and
// costs nothing. The memo is host-only: what a walk charges and returns is
// what a walk of its own would.
type walker struct {
	ix   *fmindex.Index
	read []byte
	// table is how many bases the first lookup takes from the k-mer
	// table, min(Depth(), Smin): the DP never asks for a shorter seed.
	table  int
	at     []link // n+2 entries: starts 0..n, and a link slot past the end
	end, k int
	lo, hi int // at[end-k], the interval of read[end-k:end]
	// fmSteps is what the walks charge; ranks counts the ExtendLeft calls
	// they made (ranks ≤ fmSteps), for the tests.
	fmSteps, ranks int
}

// link is a stored interval and whether the one stored left of it is its
// step (see walker).
type link struct {
	lo, hi int32
	linked bool
}

// begin starts the walks over read: nothing is stored or linked yet.
func (w *walker) begin(ix *fmindex.Index, read []byte, table int) {
	w.ix, w.read, w.table = ix, read, table
	w.fmSteps, w.ranks = 0, 0
	w.at = slices.Grow(w.at[:0], len(read)+2)[:len(read)+2]
	clear(w.at)
}

// reset starts the walk from end at the interval of its last `table`
// bases, looked up and charged as the `table` FM steps that reach it
// (DESIGN.md §4 "Seed selection"). When that k-mer does not occur it walks
// from the full interval instead, so the steps charged are still the ones
// the kernel's step-by-step walk takes before its interval empties.
//
//repute:hotpath
func (w *walker) reset(end int) {
	w.end, w.k = end, 0
	w.lo, w.hi = w.ix.Start()
	if t := w.table; t > 0 {
		if lo, hi := w.ix.Lookup(w.read[end-t : end]); lo < hi {
			w.lo, w.hi, w.k = lo, hi, t
			w.fmSteps += t
		}
	}
	w.put(end-w.k, w.lo, w.hi)
}

// put stores the interval at start s. Storing a different one than is
// there breaks the link from s to s-1 and the one from s+1 to s.
//
//repute:hotpath
func (w *walker) put(s, lo, hi int) {
	if a := &w.at[s]; int(a.lo) != lo || int(a.hi) != hi {
		*a = link{lo: int32(lo), hi: int32(hi)}
		w.at[s+1].linked = false
	}
}

// count returns the candidate count of the seed read[end-l:end], for
// l ≥ table.
//
//repute:hotpath
func (w *walker) count(l int) int32 {
	if l > w.k && !w.extend(l) {
		return 0
	}
	a := w.at[w.end-l]
	return max(a.hi-a.lo, 0)
}

// extend walks on towards length l and reports whether it got there
// before the interval emptied.
//
//repute:hotpath
func (w *walker) extend(l int) bool {
	for w.k < l && w.lo < w.hi {
		s := w.end - w.k
		if a := &w.at[s]; a.linked {
			b := w.at[s-1]
			w.lo, w.hi = int(b.lo), int(b.hi)
		} else {
			w.lo, w.hi = w.ix.ExtendLeft(w.read[s-1], w.lo, w.hi)
			w.ranks++
			w.put(s-1, w.lo, w.hi)
			a.linked = true
		}
		w.k++
		w.fmSteps++
	}
	return w.k >= l
}

// searchSeed runs a backward search for read[start:end] and returns the
// interval plus the FM steps it charges. The last min(Depth(), length)
// bases come from the k-mer table when they occur, charged as the steps
// they stand for; the rest of the seed, or all of it when they do not
// occur, is walked.
//
//repute:hotpath
func searchSeed(ix *fmindex.Index, read []byte, start, end int) (lo, hi, steps int) {
	lo, hi, end, steps = searchFrom(ix, read, start, end)
	for i := end - 1; i >= start; i-- {
		lo, hi = ix.ExtendLeft(read[i], lo, hi)
		steps++
		if lo >= hi {
			return lo, hi, steps
		}
	}
	return lo, hi, steps
}

// searchFrom is where a backward search for read[start:end] begins: the
// interval of its last min(Depth(), end−start) bases from the k-mer
// table, charged as the steps they stand for, when they occur; else
// Start() and no steps. The search walks on from read[next-1].
//
//repute:hotpath
func searchFrom(ix *fmindex.Index, read []byte, start, end int) (lo, hi, next, steps int) {
	lo, hi = ix.Start()
	if t := min(ix.Depth(), end-start); t > 0 {
		if tlo, thi := ix.Lookup(read[end-t : end]); tlo < thi {
			return tlo, thi, end - t, t
		}
	}
	return lo, hi, end, 0
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
// the paper's Smin trade-off controls. The REPUTE estimate is the paper's
// kernel: two live opt rows of W+1 entries, the δ-row backtracking matrix
// and the walk's counts. It is not dpSelect's own footprint, which
// Selection.PeakMemBytes reports: dpSelect keeps all δ+1 opt rows, so that
// figure is this one, less the fixed registers, plus (δ−1)·(W+1)·4 bytes
// (TestDPPeakMemVsSelection). The device model charges this estimate. OSS
// is the same shape over the whole read; the serial strategies carry only
// a few registers.
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

// Select implements Selector. Its δ+1 backward searches are independent,
// so it runs them side by side (searchLanes): on a large index each step
// is a cache miss, and the misses of different seeds then overlap. Seeds
// and FMSteps are what a searchSeed per seed gives.
func (Uniform) Select(ix *fmindex.Index, read []byte, p Params) (Selection, error) {
	if err := p.validate(len(read)); err != nil {
		return Selection{}, err
	}
	parts := p.Errors + 1
	seeds := make([]Seed, parts)
	steps := 0
	for first := 0; first < parts; first += maxLanes {
		steps += searchLanes(ix, read, seeds, first, min(first+maxLanes, parts))
	}
	return Selection{
		Seeds:           seeds,
		TotalCandidates: totalOf(seeds),
		FMSteps:         steps,
		PeakMemBytes:    parts * 16,
	}, nil
}

// maxLanes is how many seeds searchLanes steps together: one group
// covers every δ up to 15, and a longer partition runs group by group.
const maxLanes = 16

// lane is one seed's backward search in flight: the seed, the read
// position its next step prepends, its interval, and that step's
// checkpoint part.
type lane struct {
	seed, i        int
	lo, hi         int
	baseLo, baseHi int
}

// searchLanes fills seeds[first:last] with the uniform partition's seeds
// — seed k is read[k·n/parts : (k+1)·n/parts) for parts = len(seeds) —
// and returns the FM steps searchSeed charges for them. It takes every
// seed's k-mer lookup first, then one step of every seed still searching
// per round, loading each one's checkpoint counts (ExtendLeftBase) before
// it ranks inside any block (ExtendLeftRest).
//
//repute:hotpath
func searchLanes(ix *fmindex.Index, read []byte, seeds []Seed, first, last int) (steps int) {
	var lanes [maxLanes]lane
	n, parts, live := len(read), len(seeds), 0
	for k := first; k < last; k++ {
		start, end := k*n/parts, (k+1)*n/parts
		lo, hi, next, st := searchFrom(ix, read, start, end)
		steps += st
		seeds[k] = Seed{Start: start, End: end, Lo: lo, Hi: hi}
		if next > start {
			lanes[live] = lane{seed: k, i: next - 1, lo: lo, hi: hi}
			live++
		}
	}
	for live > 0 {
		for j := range lanes[:live] {
			l := &lanes[j]
			l.baseLo, l.baseHi = ix.ExtendLeftBase(read[l.i], l.lo, l.hi)
		}
		steps += live
		kept := 0
		for _, l := range lanes[:live] {
			l.lo, l.hi = ix.ExtendLeftRest(read[l.i], l.lo, l.hi, l.baseLo, l.baseHi)
			s := &seeds[l.seed]
			s.Lo, s.Hi = l.lo, l.hi
			if l.lo < l.hi && l.i > s.Start {
				l.i--
				lanes[kept] = l
				kept++
			}
		}
		live = kept
	}
	return steps
}
