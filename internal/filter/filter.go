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
// counts for the Myers kernel, in GateKeeper's register model: Prepare
// charges one per (base, pattern word) of four one-hot pattern
// registers; Accept charges one per (shift, pattern word) mask plus
// the build of four one-hot window registers, and one more per (shift,
// mask word) the walk reads. The host holds two bit planes instead of
// four one-hot registers, and builds the masks as GateKeeper's shift
// register does: its window register words move down one bit per
// shift (see State). The charge models the device, not the host, so a
// change to the host's registers moves no charged word.
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
//
// Pattern and window are held as bit planes: bit i of a low (high)
// plane is the low (high) bit of base i's code, so two bases are equal
// iff both planes agree. The window registers are aligned for the
// first shift s = −δ — window position j occupies bit j+δ — so mask
// bit i at shift s reads register bit i+s+δ. decide takes the pattern
// a pair of words at a time: it copies the three register words the
// pair's first shift reads into locals and moves them down one bit per
// shift, as GateKeeper's shift register does, reloading them every 64
// shifts. in marks, per shift, the pattern bits that meet a window
// base. The per-word buffers cover whole pairs (ws words); an odd wp's
// spare word is zero in the pattern planes and in in, so its masks are
// zero.
type State struct {
	n     int // pattern length
	delta int // error budget δ
	wp    int // 64-bit words covering the n pattern bits; ws rounds it up to whole pairs

	pl, ph []uint64    // pattern planes (ws words)
	wl, wh []uint64    // window registers (ws + 4δ/64 + 1 words)
	in     [][2]uint64 // in-window pattern bits of a word pair, pair-major (ws/2 × Shifts(δ))
	inLen  int         // window bases in was built for; −1 after Prepare
	masks  [][2]uint64 // unamended match masks, laid out as in
	pairs  []uint64    // bit i set iff bits i and i+1 match at one shift (ws words)
}

// Prepare builds the pattern planes for one pattern (a code sequence,
// dna.A..dna.T) and error budget. It returns the filter-word cost
// charged to the simulated device: one unit per (base, pattern word)
// lane of GateKeeper's one-hot pattern registers, mirroring how
// VerifyWords counts Myers block updates rather than machine
// instructions.
//
//repute:hotpath
func (st *State) Prepare(pattern []byte, delta int) int64 {
	n := len(pattern)
	wp := max((n+63)/64, 1)
	ws := wp + wp&1
	st.n, st.delta, st.wp, st.inLen = n, delta, wp, -1
	// The last pair's shift s ≤ 4δ reads register words up to
	// ws−2 + s/64 + 2.
	vr := ws + 4*delta/64 + 1
	if cap(st.pl) < ws {
		st.pl, st.ph, st.pairs = make([]uint64, ws), make([]uint64, ws), make([]uint64, ws)
	}
	if cap(st.wl) < vr {
		st.wl, st.wh = make([]uint64, vr), make([]uint64, vr)
	}
	ms := Shifts(delta) * ws / 2
	if cap(st.masks) < ms {
		st.masks, st.in = make([][2]uint64, ms), make([][2]uint64, ms)
	}
	st.pl, st.ph, st.pairs = st.pl[:ws], st.ph[:ws], st.pairs[:ws]
	st.wl, st.wh = st.wl[:vr], st.wh[:vr]
	st.masks, st.in = st.masks[:ms], st.in[:ms]
	clear(st.pl)
	clear(st.ph)
	for i, c := range pattern {
		st.pl[i>>6] |= uint64(c&1) << (uint(i) & 63)
		st.ph[i>>6] |= uint64(c>>1&1) << (uint(i) & 63)
	}
	return int64(dna.Alphabet * wp)
}

// Accept runs the filter over one candidate window (a code sequence
// extracted around the candidate position, the same window of at most
// n+2δ bases the verifier would scan). It reports whether the window
// may contain a match within the prepared error budget, plus the
// filter-word cost of the decision. A window too short to contain any
// match (the verifier's own skip condition) is rejected at zero cost.
//
//repute:hotpath
func (st *State) Accept(window []byte) (bool, int64) {
	L := len(window)
	if ok, done := st.trivial(L); done {
		return ok, 0
	}
	m := st.loaded(L)
	clear(st.wl)
	clear(st.wh)
	for j, c := range window[:m] {
		i := uint(j + st.delta)
		st.wl[i>>6] |= uint64(c&1) << (i & 63)
		st.wh[i>>6] |= uint64(c>>1&1) << (i & 63)
	}
	return st.decide(L)
}

// AcceptPacked is Accept over the window text[lo, hi), read straight
// from the packed text as two bit planes.
//
//repute:hotpath
func (st *State) AcceptPacked(text dna.PackedSeq, lo, hi int) (bool, int64) {
	L := hi - lo
	if ok, done := st.trivial(L); done {
		return ok, 0
	}
	m := st.loaded(L)
	// Load from δ bases before the window, so that window base j lands
	// on bit j+δ; the bases before it fall outside in. Only a window
	// within δ of the text start still needs moving up.
	from := max(lo-st.delta, 0)
	k := (lo + m - from + 63) / 64
	text.Planes(from, lo+m, st.wl[:k], st.wh[:k])
	clear(st.wl[k:])
	clear(st.wh[k:])
	if d := st.delta - (lo - from); d > 0 {
		shiftUp(st.wl, d)
		shiftUp(st.wh, d)
	}
	return st.decide(L)
}

// trivial reports whether a window of L bases is decided without a
// scan (done), and the verdict then.
func (st *State) trivial(L int) (ok, done bool) {
	switch {
	case st.n == 0:
		return true, true
	case L < st.n-st.delta:
		return false, true
	case Threshold(st.delta) >= st.n:
		// A threshold of 2δ+1 ≥ n accepts every window.
		return true, true
	}
	return false, false
}

// loaded returns how many of a window's L bases the registers hold —
// every base any shift reads — and, unless in already describes that
// many, rebuilds in: at shift s, pattern bit i (i < n) meets window
// base i+s−δ, which must lie in [0, m).
func (st *State) loaded(L int) int {
	m := min(L, 64*len(st.wl)-st.delta)
	if m == st.inLen {
		return m
	}
	st.inLen = m
	for s := range Shifts(st.delta) {
		lo, hi := st.delta-s, min(st.delta+m-s, st.n)
		for w := range st.wp + st.wp&1 {
			// Bits [lo, hi) clipped to word w: the bits below b but not a.
			a, b := min(max(lo-64*w, 0), 64), min(max(hi-64*w, 0), 64)
			st.in[w/2*Shifts(st.delta)+s][w%2] = ^uint64(0) >> uint(64-b) &^ (^uint64(0) >> uint(64-a))
		}
	}
	return m
}

// shiftUp moves register r up by d bits; bits pushed past its end are
// dropped.
func shiftUp(r []uint64, d int) {
	q, b := d/64, uint(d%64)
	for w := len(r) - 1; w >= 0; w-- {
		var x uint64
		if w >= q {
			x = r[w-q] << b
		}
		if w > q && b != 0 {
			x |= r[w-q-1] >> (64 - b)
		}
		r[w] = x
	}
}

// decide builds the amended masks from the loaded registers, applies
// the first cut, and walks the windows that pass it.
func (st *State) decide(L int) (bool, int64) {
	n, delta, wp := st.n, st.delta, st.wp
	ws, shifts := wp+wp&1, Shifts(delta)
	pl, ph, pairs := st.pl[:ws], st.ph[:ws], st.pairs[:ws]
	for k := 0; k < ws; k += 2 {
		pat := [4]uint64{pl[k], pl[k+1], ph[k], ph[k+1]}
		in, masks := st.in[k/2*shifts:][:shifts], st.masks[k/2*shifts:][:shifts]
		var p0, p1 uint64
		for s := 0; s < shifts; s += 64 {
			// Shift s−δ reads register bits from 64k+s on.
			q := k + s/64
			b0, b1 := pairMasks(in[s:min(s+64, shifts)], masks[s:], &pat,
				st.wl[q], st.wl[q+1], st.wl[q+2], st.wh[q], st.wh[q+1], st.wh[q+2])
			p0, p1 = p0|b0, p1|b1
		}
		pairs[k], pairs[k+1] = p0, p1
	}
	// The matching pairs that straddle two word pairs.
	for k := 2; k < wp; k += 2 {
		below, above := st.masks[(k/2-1)*shifts:][:shifts], st.masks[k/2*shifts:][:shifts]
		for s := range below {
			pairs[k-1] |= below[s][1] & (above[s][0] << 63)
		}
	}

	// Amendment: a match survives only when it is solid (a neighbour
	// at the same shift matches too, so it lies in a matching pair);
	// isolated single-base matches are accidental.
	unmatched := n
	var carry uint64
	for _, p := range pairs {
		unmatched -= bits.OnesCount64(p | p<<1 | carry)
		carry = p >> 63
	}
	// Cost: one filter word per (shift, pattern word) lane plus the
	// build of GateKeeper's four one-hot window registers, each of vw
	// words — the device's register model, not the host's planes.
	vw := max(wp, (L+delta+63)/64)
	words := int64(shifts*wp) + int64(dna.Alphabet*vw)
	if unmatched > Threshold(delta) {
		return false, words
	}
	ok, walked := st.walk(shifts)
	return ok, words + walked
}

// pairMasks writes the match masks of one pair of pattern words (low
// and high planes in pat: low 0, low 1, high 0, high 1) for up to 64
// consecutive shifts, and returns the pair's matching pairs: bit i of
// p0 (p1) is set when bits i and i+1 of word 0 (1) match at one of
// them. l0…l2 and h0…h2 are the register words the first shift
// reads; each shift moves them down one bit.
func pairMasks(in, masks [][2]uint64, pat *[4]uint64, l0, l1, l2, h0, h1, h2 uint64) (p0, p1 uint64) {
	masks = masks[:len(in)]
	for s := range in {
		m0 := in[s][0] &^ ((pat[0] ^ l0) | (pat[2] ^ h0))
		m1 := in[s][1] &^ ((pat[1] ^ l1) | (pat[3] ^ h1))
		masks[s] = [2]uint64{m0, m1}
		p0 |= m0 & (m0>>1 | m1<<63)
		p1 |= m1 & (m1 >> 1)
		l0, l1, l2 = l0>>1|l1<<63, l1>>1|l2<<63, l2>>1
		h0, h1, h2 = h0>>1|h1<<63, h1>>1|h2<<63, h2>>1
	}
	return p0, p1
}

// walk runs the SneakySnake walk over the prepared masks: it reports
// whether column n is reachable with at most δ obstacles, and the mask
// words it read.
func (st *State) walk(shifts int) (bool, int64) {
	n, wp, masks := st.n, st.wp, st.masks
	var read int64
	pos, obstacles := 0, 0
	for {
		// The furthest column any shift's run of matches from pos reaches.
		reach := pos
		for s := 0; s < shifts && reach < n; s++ {
			end := pos
			for w := end / 64; w < wp; w++ {
				read++
				off := end % 64
				run := bits.TrailingZeros64(^(masks[w/2*shifts+s][w%2] >> uint(off)))
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
