// Package filter implements a GateKeeper-style bit-parallel
// pre-alignment filter (Alser et al., "GateKeeper: a new hardware
// architecture for accelerating pre-alignment in DNA short read
// mapping"). It sits between seed location and Myers bit-vector
// verification and cheaply rejects candidate windows that cannot
// contain a match within the error budget δ.
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
// aligns within δ edits against SOME substring of the window W
// (length L ≤ n+2δ, the candidate position padded by δ on both
// sides). Under such an alignment a pattern position i lands at
// window index i + a + d, where a ∈ [0, 3δ] is the match start
// (L − (n−δ) ≤ 3δ) and d ∈ [−δ, δ] is the cumulative indel drift.
// The filter therefore builds shifted match masks for every shift
//
//	s ∈ S = {−δ, …, 4δ}
//
// where mask m_s has bit i set iff P[i] == W[i+s] (out-of-window
// comparisons count as mismatches). This is wider than the classic
// GateKeeper 2δ+1 shift set because our windows are padded and the
// verifier accepts a match at any start position; extra shifts only
// make the filter more permissive, so soundness is preserved.
//
// Accidental single-base matches would make a plain OR of the masks
// useless, so each mask is amended: a match bit survives only when
// it has a matching neighbour at the same shift (a "solid" run of
// length ≥ 2). The amended masks are OR-accumulated and the filter
// accepts iff
//
//	n − popcount(⋁_s solid(m_s)) ≤ 2δ+1.
//
// Soundness: an alignment with e ≤ δ edits partitions the pattern
// into at most e+1 maximal exactly-matching segments with at most e
// positions outside any segment. A segment of length ≥ 2 is a solid
// run at its shift and survives amendment whole; only length-1
// segments can be lost, at most one bit each. The unset bits in the
// accumulator therefore number at most e + (e+1) = 2e+1 ≤ 2δ+1, so
// every verifiable window passes the threshold — zero false rejects,
// by construction. The property test in this package checks exactly
// that against a brute-force Myers oracle.
package filter

import (
	"math/bits"

	"repro/internal/dna"
)

// Threshold returns the amended-mismatch acceptance threshold for an
// error budget of delta edits: 2δ+1 (δ unmatched positions plus up to
// δ+1 amended singleton segments).
func Threshold(delta int) int { return 2*delta + 1 }

// Shifts returns the number of shifted Hamming masks evaluated per
// window for an error budget of delta edits: |{−δ, …, 4δ}| = 5δ+2.
func Shifts(delta int) int { return 5*delta + 2 }

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

	peq [4][]uint64 // per-code pattern equality bitvectors (wp words)
	v   [4][]uint64 // per-code shifted window registers (vw words)
	m   []uint64    // current shift's match mask (wp words)
	acc []uint64    // OR-accumulated solid-match mask (wp words)
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
	st.m = growWords(st.m, wp)
	st.acc = growWords(st.acc, wp)
	return int64(dna.Alphabet * wp)
}

// Accept runs the shifted-Hamming filter over one candidate window (a
// code sequence extracted around the candidate position, the same
// window the verifier would scan). It reports whether the window may
// contain a match within the prepared error budget, plus the
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
		for w := 0; w < wp; w++ {
			mw := (st.peq[0][w] & st.v[0][w]) |
				(st.peq[1][w] & st.v[1][w]) |
				(st.peq[2][w] & st.v[2][w]) |
				(st.peq[3][w] & st.v[3][w])
			st.m[w] = mw
		}
		st.m[wp-1] &= st.tailMask
		// Amendment: keep only solid matches (a matching neighbour at
		// the same shift); isolated single-base matches are accidental.
		for w := 0; w < wp; w++ {
			mw := st.m[w]
			left := mw << 1
			if w > 0 {
				left |= st.m[w-1] >> 63
			}
			right := mw >> 1
			if w+1 < wp {
				right |= st.m[w+1] << 63
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
	// window register build: one 64-bit word per update, the unit
	// align.BandWords counts for the Myers kernel.
	words := int64(shifts*wp) + int64(dna.Alphabet*vw)
	return unmatched <= Threshold(delta), words
}
