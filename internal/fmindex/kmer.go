package fmindex

import "math"

const (
	// maxKmerDepth caps the k-mer table at the patterns of length ≤ 8
	// (87 381 intervals, 699 KB). Depths 9 and 10 (2.8 and 11 MB) fall out
	// of cache and made seed selection slower, not faster.
	maxKmerDepth = 8
	// kmerMinOcc is how often, on average, a pattern of the table's
	// deepest level must occur in the text: a walk's first Depth() steps
	// then almost never empty the interval, so a lookup almost always
	// stands in for them.
	kmerMinOcc = 128
)

// kmerRange is one table entry: the SA interval [lo, hi) of a pattern.
type kmerRange struct{ lo, hi int32 }

// depthFor is the k-mer table depth of a text of n bases, derived from n
// alone: the deepest level d ≤ maxKmerDepth whose 4^d patterns occur at
// least kmerMinOcc times each on average — 8 for the 16 Mbp benchmark
// reference, 7 for one of its four shards, 0 below 512 bases. A text
// whose rows do not fit the entries' int32 gets no table.
func depthFor(n int) int {
	d := 0
	for d < maxKmerDepth && n >= kmerMinOcc<<(2*(d+1)) && n < math.MaxInt32 {
		d++
	}
	return d
}

// kmerOffset is where the patterns of length k start in the table, after
// the 1 + 4 + … + 4^(k-1) shorter ones; within a level a pattern sits at
// its bases read as a base-4 number, the first base most significant.
func kmerOffset(k int) int { return (1<<(2*k) - 1) / 3 }

// buildKmers fills the table with the interval of every pattern of length
// 0..depthFor(n), one level from the one above: the interval of c·q is
// ExtendLeft(c) of q's, exactly the step Range takes, and an empty
// interval is carried unchanged because Range stops at it. It needs the
// rank blocks and cArr.
func (ix *Index) buildKmers() {
	ix.depth = depthFor(ix.n)
	ix.kmers = make([]kmerRange, kmerOffset(ix.depth+1))
	lo, hi := ix.Start()
	ix.kmers[0] = kmerRange{int32(lo), int32(hi)}
	for k := 1; k <= ix.depth; k++ {
		above := ix.kmers[kmerOffset(k-1):kmerOffset(k)]
		level := ix.kmers[kmerOffset(k):kmerOffset(k+1)]
		// Parents in code order are in SA order, so one sweep visits the
		// rank blocks in ascending order, and a parent's four extensions
		// reread the same two blocks.
		for q, r := range above {
			for c := range 4 {
				e := r
				if r.lo < r.hi {
					lo, hi := ix.ExtendLeft(byte(c), int(r.lo), int(r.hi))
					e = kmerRange{int32(lo), int32(hi)}
				}
				level[c*len(above)+q] = e
			}
		}
	}
}

// Depth returns the longest pattern Lookup answers.
func (ix *Index) Depth() int { return ix.depth }

// Lookup returns the SA interval of p (base codes, len(p) ≤ Depth()) from
// the k-mer table: what Range(p) computes with len(p) ExtendLeft steps,
// in one load. A longer p panics.
//
//repute:hotpath
func (ix *Index) Lookup(p []byte) (lo, hi int) {
	if len(p) > ix.depth {
		panic("fmindex: Lookup pattern longer than Depth()")
	}
	code := 0
	for _, c := range p {
		code = code<<2 | int(c)
	}
	r := ix.kmers[kmerOffset(len(p))+code]
	return int(r.lo), int(r.hi)
}
