package seed

import (
	"fmt"
	"slices"

	"repro/internal/fmindex"
)

// REPUTE is the paper's memory-optimised DP seed selector. It finds the
// partition of the read into δ+1 seeds, each at least MinSeedLen long,
// that minimises the total number of candidate locations — provably
// optimal under the minimum-length constraint — while keeping the DP
// state clipped to the exploration window W = n − Smin·(δ+1) the paper
// describes: every DP row and the backtracking matrix span W+1 entries
// instead of the whole read.
type REPUTE struct{}

// Name implements Selector.
func (REPUTE) Name() string { return "repute-dp" }

// Select implements Selector, with memory of its own.
func (s REPUTE) Select(ix *fmindex.Index, read []byte, p Params) (Selection, error) {
	return new(Scratch).Select(s, ix, read, p)
}

// OSS is the full Optimal Seed Solver: the same dynamic program with no
// minimum seed length, i.e. the exploration space is the entire read.
// It produces the unconstrained optimum at a larger memory and time cost;
// the ablation benches quantify the difference.
type OSS struct{}

// Name implements Selector.
func (OSS) Name() string { return "oss-full" }

// Select implements Selector, with memory of its own.
func (s OSS) Select(ix *fmindex.Index, read []byte, p Params) (Selection, error) {
	return new(Scratch).Select(s, ix, read, p)
}

// Scratch is the memory of the DP selectors, REPUTE and OSS, reused by
// every selection made through it: the opt and backtracking rows, the
// seeds and the shared walks. A host worker keeps one, so that after
// warm-up a selection allocates nothing. It is not safe for concurrent
// use.
type Scratch struct {
	opt   []int32
	bt    []uint16
	seeds []Seed
	walk  walker
}

// Select runs sel on read. The DP selectors run in sc, and the Seeds
// they return are sc's until its next selection; any other selector runs
// as its own Select does.
func (sc *Scratch) Select(sel Selector, ix *fmindex.Index, read []byte, p Params) (Selection, error) {
	switch sel.(type) {
	case REPUTE:
		return sc.dpSelect(ix, read, p.Errors, max(p.MinSeedLen, 1))
	case OSS:
		return sc.dpSelect(ix, read, p.Errors, 1)
	}
	return sel.Select(ix, read, p)
}

// dpSelect runs the divider DP shared by REPUTE and OSS.
//
// State: opt[j][v] is the minimal total candidate count of splitting
// read[0 : j*smin + v] into j seeds of length >= smin, for j = 1..δ+1 and
// window offset v in [0, W], W = n - (δ+1)*smin.
//
// The paper's "δ iterations" correspond to j = 2..δ+1. Rather than
// walking the FM-index separately inside every iteration, prefix ends are
// processed in ascending order and each end's leftward frequency walk is
// shared by every iteration that examines it — the OSS-style "efficient
// use of FM-index backward search" §II-B mentions. Results are identical;
// the walk count drops by about the iteration overlap factor.
//
// The divider scan and the walk take three of the Optimal Seed Solver's
// cuts (DESIGN.md §4 "Seed selection"). Divider cascading: the smallest
// optimal divider bt[j][v] never decreases in v (the counts obey the
// quadrangle inequality), so for j < δ+1 and v > 0 the scan evaluates
// lb = bt[j][v-1] first and searches only (lb, v]. Early termination: u
// is scanned from v down, shortest last seed first, and stops once
// opt[j-1][u] + count(lb) exceeds best, or equals it while best is lb's —
// opt is non-increasing in v and a seed's count in its length, so no
// divider in (lb, u] can do better (without a cascade, count(lb) is 0).
// The pull walk: the walk from e is extended only to the longest seed the
// scan reads. Shared walks: a step an earlier end's walk took from the
// same interval at the same read position is not ranked again (walker).
//
//repute:hotpath
func (sc *Scratch) dpSelect(ix *fmindex.Index, read []byte, errors, smin int) (Selection, error) {
	p := Params{Errors: errors, MinSeedLen: smin}
	n := len(read)
	if err := p.validate(n); err != nil {
		return Selection{}, err
	}
	parts := errors + 1
	if n < parts*smin {
		return Selection{}, fmt.Errorf(
			"seed: read length %d < %d seeds × Smin %d", n, parts, smin)
	}
	seeds := slices.Grow(sc.seeds[:0], parts)[:parts]
	sc.seeds = seeds

	if errors == 0 {
		lo, hi, st := searchSeed(ix, read, 0, n)
		seeds[0] = Seed{Start: 0, End: n, Lo: lo, Hi: hi}
		return Selection{Seeds: seeds, TotalCandidates: seeds[0].Count(), FMSteps: st, PeakMemBytes: 16}, nil
	}

	w := n - parts*smin // exploration window; offsets v, u are in [0, w]
	const inf = int32(1<<31 - 1)

	// opt rows for j = 1..parts at stride w+1; bt rows for j = 2..parts.
	// Every bt entry is written before it is read.
	opt := slices.Grow(sc.opt[:0], parts*(w+1))[:parts*(w+1)]
	for i := range opt {
		opt[i] = inf
	}
	bt := slices.Grow(sc.bt[:0], (parts-1)*(w+1))[:(parts-1)*(w+1)]
	sc.opt, sc.bt = opt, bt
	walker := &sc.walk
	walker.begin(ix, read, min(ix.Depth(), smin))
	row := func(j int) []int32 { return opt[(j-1)*(w+1) : j*(w+1)] }

	cells := 0
	for e := smin; e <= n; e++ {
		// Iterations j with a prefix end at e: v = e - j*smin in [0, w].
		jHi := e / smin
		if jHi > parts {
			jHi = parts
		}
		jLo := (e - w + smin - 1) / smin
		if jLo < 1 {
			jLo = 1
		}
		if jLo > jHi {
			continue
		}
		// The final iteration only ever needs the full-read prefix.
		if jHi == parts && e != n {
			jHi = parts - 1
			if jLo > jHi {
				continue
			}
		}
		// One shared leftward walk covers every seed ending at e.
		walker.reset(e)

		for j := jLo; j <= jHi; j++ {
			v := e - j*smin
			if j == 1 {
				// Single seed covering the whole prefix read[0:e].
				row(1)[v] = walker.count(e)
				cells++
				continue
			}
			prev := row(j - 1)
			// Seed read[(j-1)*smin+u : e] has length smin+v-u.
			best, bestU, lb := inf, 0, -1
			var bound int32
			if j < parts && v > 0 {
				// Cascade: the divider at v is at least the one at v-1.
				// Its seed is the longest the scan may need, so its count
				// bounds every divider below the ones scanned.
				lb = int(bt[(j-2)*(w+1)+v-1])
				bound = walker.count(smin + v - lb)
				best, bestU = prev[lb]+bound, lb
				cells++
			}
			// Ties go to the smallest u, as a left-to-right scan keeping
			// the first strict minimum would pick: lb wins them outright,
			// and between scanned dividers the later (smaller) one does.
			for u := v; u > lb; u-- {
				if b := prev[u] + bound; b > best || b == best && bestU == lb {
					break
				}
				if c := prev[u] + walker.count(smin+v-u); c < best || c == best && bestU != lb {
					best, bestU = c, u
				}
				cells++
			}
			row(j)[v] = best
			bt[(j-2)*(w+1)+v] = uint16(bestU)
		}
	}

	// Backtrack from the full read: seed j-1 ends where seed j starts.
	end, v := n, w
	for j := parts; j >= 2; j-- {
		u := int(bt[(j-2)*(w+1)+v])
		seeds[j-1] = Seed{Start: (j-1)*smin + u, End: end}
		end, v = seeds[j-1].Start, u
	}
	seeds[0] = Seed{Start: 0, End: end}
	steps := walker.fmSteps
	for i := range seeds {
		s := &seeds[i]
		var st int
		s.Lo, s.Hi, st = searchSeed(ix, read, s.Start, s.End)
		steps += st
	}

	return Selection{
		Seeds:           seeds,
		TotalCandidates: totalOf(seeds),
		FMSteps:         steps,
		DPCells:         cells,
		// The kernel's walk keeps the count of every length it reached,
		// smin+w of them; the shared intervals are host-only.
		PeakMemBytes: len(opt)*4 + len(bt)*2 + (smin+w)*4,
	}, nil
}
