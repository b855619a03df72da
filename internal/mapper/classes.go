package mapper

import (
	"math/bits"

	"repro/internal/dna"
)

// windowClasses groups one read's candidate windows into classes of
// identical windows: the same strand, the same length L and the same
// ⌈L/32⌉ words of 2-bit codes. The filter's and the Myers scan's verdicts
// depend on nothing else, so each stage decides a class once, at its
// first member, and every later member — a repeat copy of the first —
// takes that verdict. Each member is still charged as if it had been
// scanned, so the simulated device runs every window.
//
// A work item assigns classes once, after dedup; the filter compacts
// each survivor's class with it, so the verify stage reads the same
// classes with no second pass.
//
// Classes are found by open addressing. Hashes only pick slots:
// membership compares L, the strand and every code word, re-read from
// the text at the first member's window, so two windows share a class
// only when they are equal.
type windowClasses struct {
	// of is each candidate's class, or -1 for a candidate without a
	// window: of[i] is cands[i]'s for the candidates the stage at hand
	// scans.
	of []int32
	// classes are numbered in the order of their first members.
	classes []windowClass
	// slots holds a class number plus one, or 0 for an empty slot.
	slots []int32
}

// windowClass is one class: its first member's window and, once each
// stage has decided it, that stage's verdict. The two verdicts are kept
// apart: the filter decides a class before Myers does, and a window the
// filter accepts may still fail to verify.
type windowClass struct {
	lo, n  int32 // the first member's window start and length
	strand byte
	// filtered is set once the filter has decided the class: pass is
	// whether it accepts the window, words the words the decision took.
	filtered, pass bool
	// verified is set once Myers has scanned the class: ok is whether it
	// matched, at the match's start in the window and dist its distance.
	verified, ok bool
	dist         uint8
	words, at    int32
}

// hashMul is 2⁶⁴ over the golden ratio, an odd multiplier that spreads
// every input bit into the high bits the slot is taken from.
const hashMul = 0x9E3779B97F4A7C15

// assign is the class pass: it computes every candidate's window and
// class before a stage scans any window. homes hashes each window's ends
// to its home slot; then each window takes the class of the first equal
// window it probes from there, or opens one.
//
// Repeat copies that differ only inside the window share a home slot.
// So that they do not pile up in one probe chain, a window that meets a
// different one at home steps on by a second hash that takes in every
// code word (double hashing). Only such a window computes it: an empty
// home slot or an equal window there decides the rest.
//
//repute:hotpath
func (wc *windowClasses) assign(text dna.PackedSeq, n, maxErr int, cands []Candidate) {
	// At most half the slots are ever full, so every probe ends.
	size := 2 << bits.Len(uint(len(cands)))
	if cap(wc.slots) < size {
		// The slots, the candidates' classes and the class records all
		// grow here, together and by powers of two: a few times in a
		// state's life, two allocations each.
		wc.slots = make([]int32, size+size/2)
		wc.slots, wc.of = wc.slots[:size:size], wc.slots[size:]
		wc.classes = make([]windowClass, 0, size/2)
	}
	slots, of, classes := wc.slots[:size], wc.of[:len(cands)], wc.classes[:0]
	clear(slots)
	homes(text, n, maxErr, cands, of)
	shift, mask := uint(65-bits.Len(uint(size))), int32(size-1)
	for i, c := range cands {
		if of[i] < 0 {
			continue
		}
		lo, hi, _ := Window(c.Pos, n, maxErr, text.Len())
		L := hi - lo
		s, step := int32(uint64(of[i])*hashMul>>shift), int32(0)
		for {
			k := slots[s] - 1
			if k < 0 {
				// A new class, written field by field: a record built
				// whole and copied in costs a store-forwarding stall.
				k = int32(len(classes))
				classes = classes[:k+1]
				cls := &classes[k]
				cls.lo, cls.n, cls.strand, cls.filtered, cls.verified = int32(lo), int32(L), c.Strand, false, false
				slots[s] = k + 1
			} else if cls := &classes[k]; int(cls.n) != L || cls.strand != c.Strand || !sameCodes(text, int(cls.lo), lo, L) {
				if step == 0 {
					step = int32(wordsHash(text, lo, L, uint64(of[i]))>>shift) | 1
				}
				s = (s + step) & mask
				continue
			}
			of[i] = k
			break
		}
	}
	wc.slots, wc.of, wc.classes = slots, of, classes
}

// homes writes a hash of each candidate window's length, strand, first
// 32 bases and last base to of, 31 bits, or −1 for a candidate without a
// window. It is the first touch of every window: its two loads, the
// window's first and last packed bytes, depend on nothing before them,
// and the loop is short, so the CPU overlaps the cache misses of many
// windows, and every later read of a window up to 260 bases long hits
// cache. It is its own function so that its loop keeps its values in
// registers.
func homes(text dna.PackedSeq, n, maxErr int, cands []Candidate, of []int32) {
	packed := text.Bytes()
	of = of[:len(cands)]
	for i, c := range cands {
		lo, hi, ok := Window(c.Pos, n, maxErr, text.Len())
		of[i] = -1
		if ok {
			L := hi - lo
			last := packed[(hi-1)>>2] >> (2 * uint((hi-1)&3)) & 3
			h := (uint64(L)<<10 | uint64(c.Strand)<<2 | uint64(last) ^ word(text.Codes32(lo), L)) * hashMul
			of[i] = int32(h >> 33)
		}
	}
}

// wordsHash mixes every code word of the window text[lo, lo+L) past
// the first into h, each rotated by its own amount so that the words are
// independent of each other until the one multiply.
func wordsHash(text dna.PackedSeq, lo, L int, h uint64) uint64 {
	for k := 32; k < L; k += 32 {
		h ^= bits.RotateLeft64(word(text.Codes32(lo+k), L-k), k*23/32)
	}
	return h * hashMul
}

// word keeps the first r bases of a Codes32 word, all 32 when r ≥ 32.
func word(w uint64, r int) uint64 {
	if r < 32 {
		w &= 1<<(2*uint(r)) - 1
	}
	return w
}

// sameCodes reports whether text[a, a+L) and text[b, b+L) hold the same
// bases.
func sameCodes(text dna.PackedSeq, a, b, L int) bool {
	for k := 0; k < L; k += 32 {
		if word(text.Codes32(a+k)^text.Codes32(b+k), L-k) != 0 {
			return false
		}
	}
	return true
}
