package seed

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fmindex"
)

// oracleSelect enumerates every legal partition of read into parts
// contiguous seeds of length >= smin and returns the minimal total
// candidate count, the set of optimal divider vectors (seed end
// positions) and how many optima exist — the brute-force ground truth
// the DP must match.
func oracleSelect(ix *fmindex.Index, read []byte, parts, smin int) (best int, optima [][]int) {
	n := len(read)
	best = int(^uint(0) >> 1)
	ends := make([]int, parts)
	var rec func(i, start, total int)
	rec = func(i, start, total int) {
		if i == parts-1 {
			if n-start < smin {
				return
			}
			total += ix.Count(read[start:n])
			ends[i] = n
			if total < best {
				best = total
				optima = optima[:0]
			}
			if total == best {
				optima = append(optima, append([]int(nil), ends...))
			}
			return
		}
		// Leave at least smin per remaining seed.
		for end := start + smin; end <= n-(parts-1-i)*smin; end++ {
			ends[i] = end
			rec(i+1, end, total+ix.Count(read[start:end]))
		}
	}
	rec(0, 0, 0)
	return best, optima
}

func seedEnds(sel Selection) []int {
	ends := make([]int, len(sel.Seeds))
	for i, s := range sel.Seeds {
		ends[i] = s.End
	}
	return ends
}

// TestDPEdgeCasesAgainstOracle drives the REPUTE and OSS dynamic
// programs through the boundary geometries of the divider DP — read
// length not divisible by δ+1, the window collapsed to zero by Smin,
// δ=0's short-circuit, and a read absent from the reference (the
// encoded analogue of an all-N read: every seed has zero candidates) —
// and checks the chosen dividers against the brute-force oracle.
func TestDPEdgeCasesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	text := repetitiveText(rng, 12_000)
	// Confine the text to codes 0..2 so code 3 can play the part of an
	// ambiguous base that cannot occur in the reference.
	for i, c := range text {
		if c == 3 {
			text[i] = byte(rng.Intn(3))
		}
	}
	ix := fmindex.Build(text, fmindex.Options{})
	pos := 4321
	absent := make([]byte, 64)
	for i := range absent {
		absent[i] = 3
	}

	cases := []struct {
		name     string
		read     []byte
		errors   int
		smin     int
		selector Selector
	}{
		// 43 = 3 seeds with remainder 1: ends fall off the smin grid.
		{"indivisible-length", text[pos : pos+43], 2, 8, REPUTE{}},
		// n == (δ+1)·Smin: the exploration window w is 0 and the split
		// is forced to exact smin-length seeds.
		{"window-collapsed", text[pos : pos+30], 2, 10, REPUTE{}},
		// Smin clipped to its other boundary: smin=1 explores everything.
		{"smin-floor", text[pos : pos+24], 3, 1, REPUTE{}},
		// δ=0 short-circuits to a single whole-read seed.
		{"zero-errors", text[pos : pos+25], 0, 8, REPUTE{}},
		// Absent (all-N-like) read: every seed counts zero; the DP must
		// still emit a legal partition.
		{"all-n-read", absent, 2, 9, REPUTE{}},
		// The unconstrained OSS hits the same geometry with smin=1.
		{"oss-indivisible", text[pos : pos+41], 3, 1, OSS{}},
		{"oss-all-n", absent[:30], 2, 1, OSS{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parts := tc.errors + 1
			sel, err := tc.selector.Select(ix, tc.read,
				Params{Errors: tc.errors, MinSeedLen: tc.smin})
			if err != nil {
				t.Fatal(err)
			}
			checkPartition(t, sel, len(tc.read), parts)
			smin := tc.smin
			if _, isOSS := tc.selector.(OSS); isOSS {
				smin = 1
			}
			for i, s := range sel.Seeds {
				if s.Len() < smin {
					t.Errorf("seed %d length %d < Smin %d", i, s.Len(), smin)
				}
			}
			checkCounts(t, ix, tc.read, sel)

			best, optima := oracleSelect(ix, tc.read, parts, smin)
			if sel.TotalCandidates != best {
				t.Errorf("TotalCandidates = %d, oracle optimum = %d (dividers %v)",
					sel.TotalCandidates, best, seedEnds(sel))
			}
			if len(optima) == 1 && !reflect.DeepEqual(seedEnds(sel), optima[0]) {
				t.Errorf("dividers = %v, oracle's unique optimum = %v",
					seedEnds(sel), optima[0])
			}
			found := false
			for _, o := range optima {
				if reflect.DeepEqual(seedEnds(sel), o) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("dividers %v are not among the %d oracle optima",
					seedEnds(sel), len(optima))
			}
			checkAgainstOracle(t, ix, tc.read, tc.errors, tc.smin)
		})
	}
}

// TestDPInfeasibleSmin: a read too short for δ+1 seeds of Smin must be
// rejected with the documented error, not mis-partitioned.
func TestDPInfeasibleSmin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	text := repetitiveText(rng, 2_000)
	ix := fmindex.Build(text, fmindex.Options{})
	read := text[100:129] // 29 < 3 × 10
	_, err := (REPUTE{}).Select(ix, read, Params{Errors: 2, MinSeedLen: 10})
	if err == nil || !strings.Contains(err.Error(), "seeds × Smin") {
		t.Fatalf("infeasible Smin accepted: %v", err)
	}
	// The boundary just above is feasible: 30 = 3 × 10.
	if _, err := (REPUTE{}).Select(ix, text[100:130], Params{Errors: 2, MinSeedLen: 10}); err != nil {
		t.Fatalf("exact-fit Smin rejected: %v", err)
	}
}
