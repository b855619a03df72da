// Package align implements the verification-stage string matching used by
// every mapper in this repository: Myers' bit-vector algorithm (Myers,
// J. ACM 1999) in the multi-word block formulation of Hyyrö, banded by
// block to the diagonals a bounded alignment can use (Ukkonen's cut-off),
// and plain dynamic-programming references that the fast path is tested
// against.
//
// All functions perform semi-global alignment: the whole pattern must
// align, but it may start and end anywhere in the text window, which is
// exactly the verification problem after pigeonhole filtration.
package align

import "math"

// Match describes one verified alignment inside a text window.
// Start/End are window coordinates with the usual half-open convention;
// Dist is the edit distance.
type Match struct {
	Start, End, Dist int
}

// Verifier is the Myers block scan bound to one pattern. Reset
// preprocesses a pattern into verifier-owned tables; after that any
// number of windows are checked against it without allocating, so a
// mapper holds one per strand and resets it once per read. The zero value
// is ready to use (it holds the empty pattern); a Verifier must not be
// shared between goroutines.
//
// The pattern's m rows fill the top of its ⌈m/64⌉ 64-row blocks: row i is
// bit i+pad, pad = 64·blocks − m, so the last row is always bit 63 of the
// last block and the bottom-row score changes by that block's carry-out.
// The pad rows below row 0 match every base and start with zero vertical
// delta, which keeps them at distance 0 in every column — the free start
// of semi-global alignment, pad rows deep.
type Verifier struct {
	m, words int
	// top is block 0's initial +1 vertical deltas: every row but the pad.
	top uint64
	// peq and rpeq are the match masks of the pattern and of the reversed
	// pattern: block b's mask for base c is at [4b+c]. They hold at least
	// two blocks, so that a scan can address the first two as an array.
	peq, rpeq []uint64
	// pv and mv are the vertical delta vectors of the blocks past the
	// second; the first two are locals of the scan.
	pv, mv []uint64
	// cols adds up the block-columns of every scan's band, counted per
	// phase before it runs; noExit turns the hopeless exit off, so that
	// the two agree. Both are for tests.
	cols   int
	noExit bool
}

// Reset binds the verifier to pattern, building the forward and the
// reversed match masks. Pattern and window bytes are base codes: only
// their low two bits are read. pattern is not retained.
//
//repute:hotpath
func (v *Verifier) Reset(pattern []byte) {
	m := len(pattern)
	w := (m + 63) / 64
	pad := 64*w - m
	v.m, v.words, v.top = m, w, ^uint64(0)<<uint(pad)
	size := 4 * max(w, 2)
	if cap(v.peq) < size {
		v.peq = make([]uint64, size)
		v.rpeq = make([]uint64, size)
		v.pv = make([]uint64, max(w-2, 0))
		v.mv = make([]uint64, max(w-2, 0))
	}
	v.peq, v.rpeq = v.peq[:size], v.rpeq[:size]
	clear(v.peq)
	clear(v.rpeq)
	for c := 0; c < 4; c++ {
		v.peq[c], v.rpeq[c] = ^v.top, ^v.top
	}
	for i, c := range pattern {
		f, r := pad+i, pad+m-1-i
		v.peq[f>>6<<2|int(c&3)] |= 1 << (uint(f) & 63)
		v.rpeq[r>>6<<2|int(c&3)] |= 1 << (uint(r) & 63)
	}
}

// step advances one 64-row block by one text column. eq is the block's
// match mask for the column's base; hp and hm are the horizontal +1 / -1
// deltas entering below the block's first row, as 0 or 1. It returns the
// new vertical vectors and the deltas leaving above its last row.
func step(pv, mv, eq, hp, hm uint64) (pvOut, mvOut, hpOut, hmOut uint64) {
	xv := eq | mv
	eq |= hm
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	phs := ph<<1 | hp
	mhs := mh<<1 | hm
	return mhs | ^(xv | phs), phs & xv, ph >> 63, mh >> 63
}

// tail advances blocks from…to (from >= 2) by one column; eq is the match
// masks from block from's entry for the column's base on. It is kept out
// of line so that scan's loop, which every pattern of up to 128 rows
// never leaves, has no slice state to keep live.
//
//go:noinline
func (v *Verifier) tail(eq []uint64, from, to int, hp, hm uint64) (hpOut, hmOut uint64) {
	pv, mv := v.pv[from-2:to-1], v.mv[from-2:to-1]
	for b := range pv {
		pv[b], mv[b], hp, hm = step(pv[b], mv[b], eq[4*b], hp, hm)
	}
	return hp, hm
}

// scan runs the semi-global scan of the pattern whose masks are peq over
// the columns text[first], text[first+stride], … (stride ±1, len(text)
// columns in all), invoking fn with (columns consumed, score) for every
// column whose score is <= maxDist. It returns the earliest column of the
// lowest score, or (-1, -1) when none is within maxDist.
//
// The scan is banded by block (Ukkonen's cut-off). An alignment of at
// most maxDist edits starts in a column >= 0, so it is in row i (1..m) at
// column j only if i <= j + maxDist; it ends in a column <= n, so only if
// j − i <= n − m + maxDist. Block b, whose last row is m − 64(w−1−b),
// therefore runs from column m − maxDist − 64(w−b), one column before
// its first row can be in the band, to column n + maxDist − 64(w−1−b),
// the last its last row can be. A block enters with the all-+1 vertical
// deltas of column 0 under the block above; a block below one that has
// left takes a +1 horizontal delta. Both can only overestimate, and only
// off every path of at most maxDist edits, so each score <= maxDist is
// exact and every other column stays above maxDist. BandWords counts the
// block-columns.
//
// Once the last block runs, the scan stops as soon as the bottom-row
// score exceeds maxDist by more than the columns left: it falls by at
// most one per column, so no later column can be reported.
//
//repute:hotpath
func (v *Verifier) scan(peq []uint64, text []byte, first, stride, maxDist int, fn func(end, dist int)) (bestEnd, bestDist int) {
	w, n := v.words, len(text)
	if n < v.m-maxDist {
		return -1, -1 // too short to hold m − maxDist of the pattern's rows
	}
	lead := (*[8]uint64)(peq)
	pv0, pv1 := v.top, ^uint64(0)
	var mv0, mv1 uint64
	if w > 2 {
		for b := range v.pv[:w-2] {
			v.pv[b], v.mv[b] = ^uint64(0), 0
		}
	}
	// Blocks lo…hi run; score is the last row of block hi. Block hi+1
	// runs from column enter, block lo up to column leave.
	lo, hi := 0, 0
	score, enter, leave := v.m-64*(w-1), v.m-maxDist-64*(w-1), n+maxDist-64*(w-1)
	for hi < w-1 && enter <= 1 {
		hi, score, enter = hi+1, score+64, enter+64
	}
	bestEnd, bestDist = -1, maxDist+1
	j, i := 0, first
scan:
	for j < n {
		// One phase: the columns over which lo and hi hold. Until the last
		// block runs, no column is reportable and none is hopeless.
		stop := n
		if hi < w-1 {
			stop = min(stop, enter-1)
		}
		if lo < hi {
			stop = min(stop, leave)
		}
		v.cols += (stop - j) * (hi - lo + 1)
		report, hopeless := -1, math.MaxInt
		if hi == w-1 {
			report = maxDist
			if !v.noExit {
				hopeless = maxDist
			}
		}
		hin := uint64(min(lo, 1)) // +1 under a block that has left
		run0, run1, runTail, from := lo == 0, lo <= 1 && hi >= 1, hi >= 2, max(lo, 2)
		for j < stop {
			// The inner loop runs to the next reported column or the
			// phase's end. The first two blocks' vectors — all there is for
			// a pattern of up to 128 rows — are scalars, so on that path the
			// loop indexes no slice but the text and makes no call.
			for {
				c := int(text[i] & 3)
				i += stride
				j++
				hp, hm := hin, uint64(0)
				if run0 {
					pv0, mv0, hp, hm = step(pv0, mv0, lead[c], 0, 0)
				}
				if run1 {
					pv1, mv1, hp, hm = step(pv1, mv1, lead[4+c], hp, hm)
				}
				if runTail {
					hp, hm = v.tail(peq[4*from+c:], from, hi, hp, hm)
				}
				score += int(hp) - int(hm)
				if score <= report || j == stop {
					break
				}
				if score-(n-j) > hopeless {
					break scan
				}
			}
			if score > report {
				continue
			}
			if fn != nil {
				fn(j, score)
			}
			if score < bestDist {
				bestEnd, bestDist = j, score
			}
		}
		if hi < w-1 && j == enter-1 {
			hi, score, enter = hi+1, score+64, enter+64
		}
		if lo < hi && j == leave {
			lo, leave = lo+1, leave+64
		}
	}
	if bestEnd < 0 {
		return -1, -1
	}
	return bestEnd, bestDist
}

// Distance returns the minimum semi-global edit distance of the pattern
// against any substring of text, together with the end (exclusive) of the
// earliest best match. If no alignment has distance <= maxDist it returns
// (-1, -1).
func (v *Verifier) Distance(text []byte, maxDist int) (end, dist int) {
	if v.m == 0 {
		return 0, 0
	}
	// Deleting the whole pattern matches anywhere at distance m, which
	// says nothing about the window: only distances below m are reported.
	maxDist = min(maxDist, v.m-1)
	return v.scan(v.peq, text, 0, 1, maxDist, nil)
}

// Occurrences invokes fn(end, dist) for every text column where the
// pattern matches with distance <= maxDist. Ends are exclusive.
func (v *Verifier) Occurrences(text []byte, maxDist int, fn func(end, dist int)) {
	if v.m == 0 {
		return
	}
	v.scan(v.peq, text, 0, 1, maxDist, fn)
}

// Verify checks whether the pattern aligns in window with distance <=
// maxDist and, when it does, recovers the full match coordinates: the
// forward scan finds the earliest best end, and a scan of the reversed
// pattern leftwards from that end finds the matching start. The match
// the forward scan found lies inside window[:end], so the reverse scan
// always reaches its distance.
//
//repute:hotpath
func (v *Verifier) Verify(window []byte, maxDist int) (Match, bool) {
	if v.m == 0 {
		return Match{}, true
	}
	end, dist := v.Distance(window, maxDist)
	if end < 0 {
		return Match{}, false
	}
	rend, rdist := v.scan(v.rpeq, window[:end], end-1, -1, dist, nil)
	return Match{Start: end - rend, End: end, Dist: rdist}, true
}

// Distance is Verifier.Distance for a pattern used once.
func Distance(pattern, text []byte, maxDist int) (end, dist int) {
	var v Verifier
	v.Reset(pattern)
	return v.Distance(text, maxDist)
}

// Occurrences is Verifier.Occurrences for a pattern used once.
func Occurrences(pattern, text []byte, maxDist int, fn func(end, dist int)) {
	var v Verifier
	v.Reset(pattern)
	v.Occurrences(text, maxDist, fn)
}

// Verify is Verifier.Verify for a pattern used once.
func Verify(pattern, window []byte, maxDist int) (Match, bool) {
	var v Verifier
	v.Reset(pattern)
	return v.Verify(window, maxDist)
}

// BandWords is the number of 64-bit block-columns the banded scan of a
// pattern of m rows computes over a window of n columns at budget
// maxDist when it runs to the last column — the words a work item
// without data-dependent exits updates, and what a window costs.
func BandWords(m, maxDist, n int) int {
	if m == 0 || n < m-maxDist {
		return 0
	}
	w, words := (m+63)/64, 0
	for b := range w {
		words += min(n, n+maxDist-64*(w-1-b)) - max(1, m-maxDist-64*(w-b)) + 1
	}
	return words
}
