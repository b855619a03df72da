// Package filter implements a GateKeeper-style bit-parallel
// pre-alignment filter (Alser et al., "GateKeeper: a new hardware
// architecture for accelerating pre-alignment in DNA short read
// mapping") followed by a SneakySnake edit lower bound (Alser et al.,
// "SneakySnake: a fast and accurate universal genome pre-alignment
// filter for CPUs, GPUs and FPGAs", arXiv:1910.09020). It sits between
// seed location and Myers bit-vector verification and cheaply rejects
// candidate windows that cannot contain a match within the error
// budget δ.
//
// The core invariant is one-sided: the filter may accept windows the
// verifier will reject (false accepts cost one wasted verification),
// but it must NEVER reject a window the verifier would accept. The
// mapper relies on this to keep filtered and unfiltered output
// byte-identical.
//
// # Filter math
//
// Verification accepts a candidate when the pattern P (length n)
// aligns within δ edits against SOME substring W[a, b) of the window W
// (length L ≤ n+2δ, the candidate position padded by δ on both sides).
// Let the alignment have i insertions (pattern bases with no window
// base) and d deletions (window bases with no pattern base), so
// i + d ≤ δ and b − a = n − i + d ≤ L. Pattern position p then lands
// at window index p + a + drift, with the drift in [−i, d], and
// a ≤ L − n + i − d ≤ 2δ + i − d. Every diagonal the alignment uses
// therefore lies in [−i, 2δ + i] ⊆ [−δ, 3δ], and the filter builds a
// match mask for every shift
//
//	s ∈ S = {−δ, …, 3δ}   (4δ+1 shifts, the band align.Verifier scans)
//
// where mask m_s has bit p set iff P[p] == W[p+s] (out-of-window
// comparisons count as mismatches).
//
// # First cut: amended masks
//
// Accidental single-base matches would make a plain OR of the masks
// useless, so each mask is amended: a match bit survives only when
// it has a matching neighbour at the same shift (a "solid" run of
// length ≥ 2). The amended masks are OR-accumulated and a window
// passes the first cut iff
//
//	n − popcount(⋁_s solid(m_s)) ≤ 2δ+1.
//
// Soundness: an alignment with e ≤ δ edits partitions the pattern
// into at most e+1 maximal exactly-matching segments with at most e
// positions outside any segment. A segment of length ≥ 2 is a solid
// run at its shift and survives amendment whole; only length-1
// segments can be lost, at most one bit each. The unset bits in the
// accumulator therefore number at most e + (e+1) = 2e+1 ≤ 2δ+1.
//
// # Second cut: the SneakySnake walk
//
// The first cut counts matches, not where they sit, so a near-miss
// repeat copy (a few substitutions, all its other bases matching at
// shift 0) passes it. Windows that pass are walked over the
// unamended masks: from column pos, take the longest run of 1-bits
// starting at pos on any shift, advance past it, count one obstacle
// and skip that column; reject once more than δ obstacles are
// counted, accept when the walk passes column n.
//
// Soundness: mark as obstacles the alignment's substituted and
// inserted columns, plus, wherever two matched columns c−1 and c sit
// on different diagonals (only deletions separate them), column c.
// Each mark is paid for by a distinct edit, so there are at most
// e ≤ δ, and between two marks every column matches on one diagonal
// in S: a cover of [0, n) by runs and at most δ obstacle columns.
// Greedy furthest-reach needs no more obstacles than any cover,
// because a run starting at a column also matches from every later
// column up to its end: by induction the walk's k-th restart is never
// left of the cover's. So the walk's obstacle count is a lower bound
// on the edit distance, and both cuts together still never reject a
// window the verifier accepts. The property tests in this package
// check that against the Myers verifier.
//
// # Cost
//
// Filter words count 64-bit word updates, the unit align.BandWords
// counts for the Myers kernel: Prepare charges one per (base, pattern
// word); Accept charges one per (shift, pattern word) mask plus the
// window register build, and one more per (shift, mask word) the walk
// reads.
package filter

import (
	"math/bits"

	"repro/internal/dna"
)

// Threshold returns the amended-mismatch acceptance threshold for an
// error budget of delta edits: 2δ+1 (δ unmatched positions plus up to
// δ+1 amended singleton segments).
func Threshold(delta int) int { return 2*delta + 1 }

// Shifts returns the number of shifted match masks evaluated per
// window for an error budget of delta edits: |{−δ, …, 3δ}| = 4δ+1.
func Shifts(delta int) int { return 4*delta + 1 }

// State is one worker's private scratch for the filter. It follows
// the simulated-OpenCL kernel-state contract: all buffers grow
// amortised and are reused across calls, so the steady-state hot path
// performs zero allocations. A State is prepared once per (pattern,
// delta) and then accepts or rejects any number of candidate windows.
// It is not safe for concurrent use; each host worker owns one.
type State struct {
	n        int    // pattern length
	delta    int    // error budget δ
	wp       int    // 64-bit words covering the n pattern bits
	tailMask uint64 // valid pattern bits in the last word

	peq   [4][]uint64 // per-code pattern equality bitvectors (wp words)
	v     [4][]uint64 // per-code shifted window registers (vw words)
	masks []uint64    // unamended match masks, shift-major (Shifts(δ) × wp words)
	acc   []uint64    // OR-accumulated solid-match mask (wp words)
}

// growWords returns buf resized to w words, reusing its backing array
// when capacity allows.
func growWords(buf []uint64, w int) []uint64 {
	if cap(buf) < w {
		return make([]uint64, w)
	}
	return buf[:w]
}

// Prepare builds the pattern equality bitvectors for one pattern (a
// code sequence, dna.A..dna.T) and error budget. It returns the
// filter-word cost charged to the simulated device: one unit per
// 64-bit word-lane written, mirroring how VerifyWords counts Myers
// block updates rather than machine instructions.
func (st *State) Prepare(pattern []byte, delta int) int64 {
	n := len(pattern)
	wp := (n + 63) / 64
	if wp == 0 {
		wp = 1
	}
	st.n, st.delta, st.wp = n, delta, wp
	if r := n % 64; r == 0 && n > 0 {
		st.tailMask = ^uint64(0)
	} else {
		st.tailMask = (uint64(1) << uint(r)) - 1
	}
	for c := 0; c < dna.Alphabet; c++ {
		st.peq[c] = growWords(st.peq[c], wp)
		for w := 0; w < wp; w++ {
			st.peq[c][w] = 0
		}
	}
	for i, c := range pattern {
		st.peq[c][i/64] |= 1 << uint(i%64)
	}
	st.masks = growWords(st.masks, Shifts(delta)*wp)
	st.acc = growWords(st.acc, wp)
	return int64(dna.Alphabet * wp)
}

// Accept runs the filter over one candidate window (a code sequence
// extracted around the candidate position, the same window of at most
// n+2δ bases the verifier would scan). It reports whether the window
// may contain a match within the prepared error budget, plus the
// filter-word cost of the decision. A window too short to contain any
// match (the verifier's own skip condition) is rejected at zero cost.
func (st *State) Accept(window []byte) (bool, int64) {
	n, delta, wp := st.n, st.delta, st.wp
	L := len(window)
	if n == 0 {
		return true, 0
	}
	if L < n-delta {
		return false, 0
	}
	// A threshold of 2δ+1 ≥ n accepts every window; skip the scan.
	if Threshold(delta) >= n {
		return true, 0
	}

	// Window registers aligned for the first shift s = −δ: register
	// bit i holds W[i−δ], i.e. window position j occupies bit j+δ.
	vw := (L + delta + 63) / 64
	if vw < wp {
		vw = wp
	}
	for c := 0; c < dna.Alphabet; c++ {
		st.v[c] = growWords(st.v[c], vw)
		for w := 0; w < vw; w++ {
			st.v[c][w] = 0
		}
	}
	for j, c := range window {
		idx := j + delta
		st.v[c][idx/64] |= 1 << uint(idx%64)
	}
	for w := 0; w < wp; w++ {
		st.acc[w] = 0
	}

	shifts := Shifts(delta)
	for s := 0; s < shifts; s++ {
		// Match mask for this shift: bit i set iff P[i] == W[i+s].
		m := st.masks[s*wp : (s+1)*wp]
		for w := 0; w < wp; w++ {
			m[w] = (st.peq[0][w] & st.v[0][w]) |
				(st.peq[1][w] & st.v[1][w]) |
				(st.peq[2][w] & st.v[2][w]) |
				(st.peq[3][w] & st.v[3][w])
		}
		m[wp-1] &= st.tailMask
		// Amendment: keep only solid matches (a matching neighbour at
		// the same shift); isolated single-base matches are accidental.
		for w := 0; w < wp; w++ {
			mw := m[w]
			left := mw << 1
			if w > 0 {
				left |= m[w-1] >> 63
			}
			right := mw >> 1
			if w+1 < wp {
				right |= m[w+1] << 63
			}
			st.acc[w] |= mw & (left | right)
		}
		if s+1 == shifts {
			break
		}
		// Advance every window register one position: s → s+1.
		for c := 0; c < dna.Alphabet; c++ {
			vc := st.v[c]
			for w := 0; w < vw-1; w++ {
				vc[w] = vc[w]>>1 | vc[w+1]<<63
			}
			vc[vw-1] >>= 1
		}
	}

	unmatched := n
	for w := 0; w < wp; w++ {
		unmatched -= bits.OnesCount64(st.acc[w])
	}
	// Cost: one filter word per (shift, pattern word) lane plus the
	// window register build.
	words := int64(shifts*wp) + int64(dna.Alphabet*vw)
	if unmatched > Threshold(delta) {
		return false, words
	}
	ok, walked := st.walk(shifts)
	return ok, words + walked
}

// walk runs the SneakySnake walk over the prepared masks: it reports
// whether column n is reachable with at most δ obstacles, and the mask
// words it read.
func (st *State) walk(shifts int) (bool, int64) {
	n, wp := st.n, st.wp
	var read int64
	pos, obstacles := 0, 0
	for {
		// The furthest column any shift's run of matches from pos reaches.
		reach := pos
		for s := 0; s < shifts && reach < n; s++ {
			m := st.masks[s*wp : (s+1)*wp]
			end := pos
			for w := end / 64; w < wp; w++ {
				read++
				off := end % 64
				run := bits.TrailingZeros64(^(m[w] >> uint(off)))
				end += run
				if run < 64-off {
					break
				}
			}
			reach = max(reach, end)
		}
		if reach >= n {
			return true, read
		}
		// Column reach matches on no shift: one edit, skip it.
		if obstacles++; obstacles > st.delta {
			return false, read
		}
		if pos = reach + 1; pos >= n {
			return true, read
		}
	}
}
