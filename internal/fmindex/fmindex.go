// Package fmindex implements an FM-index (Ferragina & Manzini, FOCS 2000)
// over 2-bit DNA texts: word-parallel popcount ranks over one interleaved
// BWT/checkpoint block per 128 rows (DESIGN.md §4), backward
// search, single-character left extension (the primitive the filtration DP
// walks), and locate via either the full suffix array or a sampled suffix
// array in the style of Bowtie 2 — the space/time trade-off the paper's
// §IV discusses.
package fmindex

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/bwt"
	"repro/internal/dna"
	"repro/internal/suffix"
)

const (
	// occCheckpoint is the number of BWT rows covered by one rank block:
	// 128 two-bit rows are four 64-bit words, which with the four
	// checkpoint counts fill one 64-byte cache line.
	occCheckpoint = 128
	// wordRows is the number of two-bit rows per 64-bit BWT word.
	wordRows = 32
	// lowBits has the low bit of every two-bit lane set.
	lowBits = 0x5555555555555555
)

// rankBlock is everything a rank over rows [j*occCheckpoint,
// (j+1)*occCheckpoint) reads, in one cache line: occ[b] is the number of
// occurrences of base b in bwt[0 : j*occCheckpoint) with the sentinel
// placeholder excluded, and bwt holds the block's rows two bits each,
// row r in bits 2*(r%wordRows).. of word r/wordRows — the packed BWT
// bytes read as little-endian words, zero-padded past row n.
type rankBlock struct {
	occ [4]uint64
	bwt [occCheckpoint / wordRows]uint64
}

// Options configure index construction.
type Options struct {
	// SASampleRate selects locate storage: 0 keeps the full suffix
	// array (4 bytes/base, fastest locate); a positive rate r stores
	// only suffix positions divisible by r and recovers the rest by
	// LF-walking (≤ r-1 steps), shrinking memory by ~r×.
	SASampleRate int
}

// Index is an immutable FM-index over a DNA reference.
type Index struct {
	n      int    // text length
	counts [4]int // per-base symbol counts
	cArr   [5]int // cArr[b] = rows before the first suffix starting with base b
	// rank holds the BWT and its Occ checkpoints, one block per
	// occCheckpoint rows of the n+1, plus one: (n+1)/occCheckpoint + 1.
	rank        []rankBlock
	sentinelRow int
	// sentinelBase is the placeholder code stored at sentinelRow. Build
	// writes 0 there; a deserialized index keeps whatever the file held.
	sentinelBase byte
	text         dna.PackedSeq
	// kmers is the host-only k-mer table (kmer.go): the interval of every
	// pattern of length 0..depth, filled from rank at build and load. It
	// is no file section and no part of SizeBytes.
	kmers []kmerRange
	depth int

	// Locate support: exactly one of sa or (samples, sampled) is set.
	sa         []int32
	sampleRate int
	samples    []int32
	sampled    *bitvec.Rank
}

// Build constructs the index for text (base codes). The text is retained
// (packed) for verification-window extraction.
func Build(text []byte, opts Options) *Index {
	sa := suffix.Build(text)
	return buildFromSA(text, sa, opts)
}

func buildFromSA(text []byte, sa []int32, opts Options) *Index {
	n := len(text)
	bw, sentinelRow := bwt.Transform(text, sa)
	ix := &Index{
		n:           n,
		sentinelRow: sentinelRow,
		text:        dna.Pack(text),
	}
	for _, c := range text {
		ix.counts[c]++
	}
	sum := 1 // row 0 is the sentinel suffix
	for b := 0; b < 4; b++ {
		ix.cArr[b] = sum
		sum += ix.counts[b]
	}
	ix.cArr[4] = sum

	ix.buildRank(dna.Pack(bw).Bytes())
	ix.buildKmers()

	if opts.SASampleRate <= 0 {
		ix.sa = sa
	} else {
		ix.sampleRate = opts.SASampleRate
		ix.buildSamples(sa)
	}
	return ix
}

// buildRank interleaves the packed BWT (n+1 two-bit rows, four per byte)
// with its Occ checkpoints, counting every checkpoint from the words
// themselves. It needs n and sentinelRow set.
func (ix *Index) buildRank(packed []byte) {
	ix.rank = make([]rankBlock, (ix.n+1)/occCheckpoint+1)
	ix.sentinelBase = packed[ix.sentinelRow/4] >> (ix.sentinelRow % 4 * 2) & 3
	var running [4]uint64
	var last [occCheckpoint / 4]byte
	for j := range ix.rank {
		blk := &ix.rank[j]
		blk.occ = running
		src := packed[j*occCheckpoint/4:]
		if len(src) < len(last) { // final block: zero-pad to whole words
			copy(last[:], src)
			src = last[:]
		}
		for w := range blk.bwt {
			blk.bwt[w] = binary.LittleEndian.Uint64(src[8*w:])
			for b := range running {
				running[b] += uint64(matchCount(blk.bwt[w], byte(b), lowBits))
			}
		}
		if ix.sentinelRow/occCheckpoint == j {
			running[ix.sentinelBase]--
		}
	}
}

func (ix *Index) buildSamples(sa []int32) {
	rate := ix.sampleRate
	bld := bitvec.NewBuilder(ix.n + 1)
	// Row 0 holds the sentinel suffix with text position n; sample it so
	// LF walks terminate without wrapping (position n % rate may be
	// nonzero, but the walk below never visits row 0 for real patterns).
	var vals []int32
	for row, pos := range sa {
		if int(pos)%rate == 0 {
			bld.Set(row + 1) // +1: FM rows are shifted by the sentinel row
			vals = append(vals, pos)
		}
	}
	ix.sampled = bld.Build()
	ix.samples = vals
}

// Len returns the reference length.
func (ix *Index) Len() int { return ix.n }

// Text returns the packed reference retained by the index.
func (ix *Index) Text() dna.PackedSeq { return ix.text }

// Start returns the backward-search interval covering all rows.
func (ix *Index) Start() (lo, hi int) { return 0, ix.n + 1 }

// matchCount counts the two-bit lanes of word that equal base b among
// the lanes whose low bit is set in lanes. XOR against b replicated into
// every lane zeroes exactly the equal lanes; complementing and ANDing
// each lane's two bits leaves one set bit per equal lane — the GateKeeper
// fold of internal/filter, on BWT words.
func matchCount(word uint64, b byte, lanes uint64) int {
	x := ^(word ^ uint64(b)*lowBits)
	return bits.OnesCount64(x & (x >> 1) & lanes)
}

// occAt returns the number of occurrences of base b in bwt[0:i),
// excluding the sentinel placeholder.
//
//repute:hotpath
func (ix *Index) occAt(b byte, i int) int {
	blk := &ix.rank[i/occCheckpoint]
	return int(blk.occ[b]) + ix.occIn(blk, b, i)
}

// occIn returns the number of occurrences of base b among the rows of
// blk, the rank block holding row i, below i, excluding the sentinel
// placeholder: occAt less the block's checkpoint count.
//
//repute:hotpath
func (ix *Index) occIn(blk *rankBlock, b byte, i int) int {
	r := uint(i) % occCheckpoint // rows of this block below i
	cnt := 0
	w := r / wordRows
	for k := uint(0); k < w; k++ {
		cnt += matchCount(blk.bwt[k], b, lowBits)
	}
	cnt += matchCount(blk.bwt[w], b, lowBits&(1<<(r%wordRows*2)-1))
	// The placeholder was counted as an ordinary base if it sits among
	// those rows: with d = sentinelRow - blockStart, 0 <= d < r as one
	// unsigned compare.
	if d := uint(ix.sentinelRow-i) + r; b == ix.sentinelBase && d < r {
		cnt--
	}
	return cnt
}

// ExtendLeft narrows the interval [lo, hi) for pattern P to the interval
// for cP. An empty result (lo >= hi) means cP does not occur.
// This is a single FM-index backward-search step and is the unit of
// filtration work the mappers account.
//
//repute:hotpath
func (ix *Index) ExtendLeft(c byte, lo, hi int) (int, int) {
	return ix.cArr[c] + ix.occAt(c, lo), ix.cArr[c] + ix.occAt(c, hi)
}

// ExtendLeftBase is the part of ExtendLeft(c, lo, hi) that comes from the
// checkpoint counts of the rank blocks holding rows lo and hi: on an
// index larger than the cache, the two loads that miss. ExtendLeftRest
// finishes the step from it inside those same blocks, so several
// independent searches that take every base before any rest overlap
// their misses, and each gets ExtendLeft's interval.
//
//repute:hotpath
func (ix *Index) ExtendLeftBase(c byte, lo, hi int) (baseLo, baseHi int) {
	return ix.cArr[c] + int(ix.rank[lo/occCheckpoint].occ[c]), ix.cArr[c] + int(ix.rank[hi/occCheckpoint].occ[c])
}

// ExtendLeftRest completes ExtendLeft(c, lo, hi) from
// ExtendLeftBase(c, lo, hi).
//
//repute:hotpath
func (ix *Index) ExtendLeftRest(c byte, lo, hi, baseLo, baseHi int) (int, int) {
	return baseLo + ix.occIn(&ix.rank[lo/occCheckpoint], c, lo), baseHi + ix.occIn(&ix.rank[hi/occCheckpoint], c, hi)
}

// Range runs a full backward search for pattern p (base codes) and
// returns the matching SA interval [lo, hi); lo >= hi means no match.
func (ix *Index) Range(p []byte) (lo, hi int) {
	lo, hi = ix.Start()
	for i := len(p) - 1; i >= 0 && lo < hi; i-- {
		lo, hi = ix.ExtendLeft(p[i], lo, hi)
	}
	return lo, hi
}

// Count returns the number of occurrences of p in the text.
func (ix *Index) Count(p []byte) int {
	lo, hi := ix.Range(p)
	if hi < lo {
		return 0
	}
	return hi - lo
}

// lf maps a BWT row to the row of the suffix one text position earlier.
// The row's base and its rank come out of the same block.
//
//repute:hotpath
func (ix *Index) lf(row int) int {
	if row == ix.sentinelRow {
		return 0
	}
	r := row % occCheckpoint
	c := byte(ix.rank[row/occCheckpoint].bwt[r/wordRows] >> (r % wordRows * 2) & 3)
	return ix.cArr[c] + ix.occAt(c, row)
}

// resolve returns the text position of the suffix at the given FM row.
func (ix *Index) resolve(row int) int {
	if ix.sa != nil {
		if row == 0 {
			return ix.n
		}
		return int(ix.sa[row-1])
	}
	steps := 0
	for {
		if row == 0 {
			return ix.n + steps
		}
		if ix.sampled.Get(row) {
			return int(ix.samples[ix.sampled.Rank1(row)]) + steps
		}
		row = ix.lf(row)
		steps++
	}
}

// Locate appends the text positions of all suffixes in [lo, hi) to out
// and returns it. Positions are not sorted. The limit caps how many are
// produced; limit <= 0 means all.
func (ix *Index) Locate(lo, hi, limit int, out []int32) []int32 {
	if limit <= 0 || limit > hi-lo {
		limit = hi - lo
	}
	for r := lo; r < lo+limit; r++ {
		out = append(out, int32(ix.resolve(r)))
	}
	return out
}

// LocateSteps reports the number of LF-mapping steps locate would spend
// on one row on average: 0 for the full suffix array, ~(rate-1)/2 when
// sampled. Used by cost accounting.
func (ix *Index) LocateSteps() float64 {
	if ix.sa != nil {
		return 0
	}
	return float64(ix.sampleRate-1) / 2
}

// SizeBytes reports the device footprint of the index structures (packed
// bwt + int32 occ checkpoints + locate support + retained text) — the
// sections WriteTo emits, sized from n, not the host's interleaved rank
// blocks, and not the host-only k-mer table. The simulated OpenCL devices
// check this against their allocation limits.
func (ix *Index) SizeBytes() int64 {
	size := int64(expectedBWTBytes(ix.n)) + int64(expectedOccLen(ix.n))*4 + int64(len(ix.text.Bytes()))
	if ix.sa != nil {
		size += int64(len(ix.sa)) * 4
	} else {
		size += int64(len(ix.samples))*4 + ix.sampled.SizeBytes()
	}
	return size
}

// validate performs internal consistency checks; it is exercised by tests
// and by ReadFrom to reject corrupted inputs.
func (ix *Index) validate() error {
	total := 0
	for _, c := range ix.counts {
		total += c
	}
	if total != ix.n {
		return fmt.Errorf("fmindex: counts sum %d != n %d", total, ix.n)
	}
	if ix.sentinelRow < 0 || ix.sentinelRow > ix.n {
		return fmt.Errorf("fmindex: sentinel row %d out of range", ix.sentinelRow)
	}
	if ix.sa == nil && (ix.sampleRate <= 0 || ix.sampled == nil) {
		return fmt.Errorf("fmindex: no locate support present")
	}
	return nil
}
