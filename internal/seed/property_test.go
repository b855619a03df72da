package seed

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fmindex"
)

// sharedIndex builds one moderate index reused by the quick properties.
var sharedIx *fmindex.Index
var sharedText []byte

func propIndex() *fmindex.Index {
	if sharedIx == nil {
		rng := rand.New(rand.NewSource(1234))
		sharedText = repetitiveText(rng, 20_000)
		sharedIx = fmindex.Build(sharedText, fmindex.Options{})
	}
	return sharedIx
}

func TestREPUTEPartitionProperty(t *testing.T) {
	ix := propIndex()
	f := func(posRaw uint16, lenRaw, errRaw, sminRaw uint8) bool {
		n := 30 + int(lenRaw)%120
		pos := int(posRaw) % (len(sharedText) - n)
		read := sharedText[pos : pos+n]
		errors := 1 + int(errRaw)%6
		smin := 2 + int(sminRaw)%14
		if (errors+1)*smin > n {
			return true // infeasible inputs are rejected elsewhere
		}
		sel, err := (REPUTE{}).Select(ix, read, Params{Errors: errors, MinSeedLen: smin})
		if err != nil {
			return false
		}
		// Partition invariants: δ+1 seeds, contiguous, covering, >= smin,
		// counts match the index.
		if len(sel.Seeds) != errors+1 {
			return false
		}
		at := 0
		total := 0
		for _, s := range sel.Seeds {
			if s.Start != at || s.Len() < smin {
				return false
			}
			at = s.End
			if got := ix.Count(read[s.Start:s.End]); got != s.Count() {
				return false
			}
			total += s.Count()
		}
		return at == n && total == sel.TotalCandidates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDPRowNonIncreasing is the first monotonicity the divider cut rests
// on: under Smin clipping, opt[j][v] — the cheapest split of
// read[0 : j·Smin+v] into j seeds of at least Smin — never rises with v
// (lengthening the last seed cannot raise its count, and every divider of
// such a split lies inside the window). Rows come from the eager oracle
// and, on short reads and up to three seeds, equal the brute-force
// optimum of their prefix.
func TestDPRowNonIncreasing(t *testing.T) {
	ix := propIndex()
	f := func(posRaw uint16, lenRaw, errRaw, sminRaw uint8) bool {
		n := 20 + int(lenRaw)%131
		pos := int(posRaw) % (len(sharedText) - n)
		read := sharedText[pos : pos+n]
		errors := 1 + int(errRaw)%7
		smin := 1 + int(sminRaw)%16
		if (errors+1)*smin > n {
			return true
		}
		_, opt, err := eagerSelect(ix, read, errors, smin)
		if err != nil {
			return false
		}
		w := n - (errors+1)*smin
		for j := 1; j <= errors; j++ { // row δ+1 holds only v = W
			row := opt[(j-1)*(w+1) : j*(w+1)]
			for v := range row {
				if v > 0 && row[v] > row[v-1] {
					t.Logf("n=%d δ=%d smin=%d: opt[%d][%d]=%d > opt[%d][%d]=%d", n, errors, smin, j, v, row[v], j, v-1, row[v-1])
					return false
				}
				if n <= 40 && j <= 3 && int(row[v]) != bruteForceOptimal(ix, read[:j*smin+v], j-1, smin) {
					t.Logf("n=%d δ=%d smin=%d: opt[%d][%d]=%d is not the prefix optimum", n, errors, smin, j, v, row[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSeedCountNonIncreasingInLength is the second: a seed's candidate
// count never rises as it grows leftwards (every occurrence of cP is one
// of P), the property that lets the walk stop charging once empty and the
// divider scan read counts shortest seed first.
func TestSeedCountNonIncreasingInLength(t *testing.T) {
	ix := propIndex()
	f := func(posRaw uint16, endRaw uint8, edit uint16) bool {
		read := append([]byte(nil), sharedText[int(posRaw)%(len(sharedText)-64):][:64]...)
		read[int(edit)%64] = byte(edit>>8) & 3
		end := 1 + int(endRaw)%64
		prev := ix.Count(nil)
		for l := 1; l <= end; l++ {
			c := ix.Count(read[end-l : end])
			if c > prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCORALPartitionProperty(t *testing.T) {
	ix := propIndex()
	f := func(posRaw uint16, lenRaw, errRaw uint8) bool {
		n := 30 + int(lenRaw)%120
		pos := int(posRaw) % (len(sharedText) - n)
		read := sharedText[pos : pos+n]
		errors := 1 + int(errRaw)%6
		if errors+1 > n {
			return true
		}
		sel, err := (CORAL{}).Select(ix, read, Params{Errors: errors, MinSeedLen: 8})
		if err != nil {
			return false
		}
		at := 0
		for _, s := range sel.Seeds {
			if s.Start != at || s.End <= s.Start {
				return false
			}
			at = s.End
		}
		return at == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDPPeakMemMonotoneInWindow(t *testing.T) {
	// Smaller Smin → larger window → more kernel memory, for both DP
	// selectors; serial strategies stay constant.
	prevRep := 0
	for smin := 20; smin >= 8; smin -= 2 {
		rep := DPPeakMem(150, 5, smin, REPUTE{})
		if rep < prevRep {
			t.Errorf("smin %d: REPUTE mem %d below larger-smin %d", smin, rep, prevRep)
		}
		prevRep = rep
	}
	if oss := DPPeakMem(150, 5, 1, OSS{}); oss <= DPPeakMem(150, 5, 8, REPUTE{}) {
		t.Errorf("OSS mem %d not above windowed REPUTE", oss)
	}
	if c := DPPeakMem(150, 5, 8, CORAL{}); c != DPPeakMem(150, 5, 20, CORAL{}) {
		t.Error("CORAL mem should not depend on smin")
	}
}
