package align

import (
	"math/rand"
	"slices"
	"testing"
)

func reversed(s []byte) []byte {
	out := slices.Clone(s)
	slices.Reverse(out)
	return out
}

// verifyDP is the oracle for Verify, all plain DP: the earliest best end
// of the (clamped) forward problem, then the latest start that reaches
// the same distance, found as the earliest best end of the reversed
// problem over window[:end].
func verifyDP(p, w []byte, maxDist int) (Match, bool) {
	if len(p) == 0 {
		return Match{}, true
	}
	end, dist := DistanceDP(p, w, min(maxDist, len(p)-1))
	if end < 0 {
		return Match{}, false
	}
	rend, rdist := DistanceDP(reversed(p), reversed(w[:end]), dist)
	return Match{Start: end - rend, End: end, Dist: rdist}, true
}

type column struct{ end, dist int }

func occurrences(scan func(fn func(end, dist int))) []column {
	var cols []column
	scan(func(e, d int) { cols = append(cols, column{e, d}) })
	return cols
}

// checkAgainstDP holds v (already Reset to p) to the DP oracles on one
// window: Distance, Verify, and every column Occurrences reports — the
// last is what shows the early exit never drops a reportable column.
func checkAgainstDP(t testing.TB, v *Verifier, p, w []byte, maxDist int) {
	t.Helper()
	gotEnd, gotDist := v.Distance(w, maxDist)
	wantEnd, wantDist := DistanceDP(p, w, min(maxDist, len(p)-1))
	if gotEnd != wantEnd || gotDist != wantDist {
		t.Fatalf("m=%d n=%d k=%d: Distance (%d,%d), DP (%d,%d)", len(p), len(w), maxDist, gotEnd, gotDist, wantEnd, wantDist)
	}
	got, ok := v.Verify(w, maxDist)
	want, wantOK := verifyDP(p, w, maxDist)
	if got != want || ok != wantOK {
		t.Fatalf("m=%d n=%d k=%d: Verify %+v %v, DP %+v %v", len(p), len(w), maxDist, got, ok, want, wantOK)
	}
	gotCols := occurrences(func(fn func(int, int)) { v.Occurrences(w, maxDist, fn) })
	wantCols := occurrences(func(fn func(int, int)) { OccurrencesDP(p, w, maxDist, fn) })
	if !slices.Equal(gotCols, wantCols) {
		t.Fatalf("m=%d n=%d k=%d: Occurrences %v, DP %v", len(p), len(w), maxDist, gotCols, wantCols)
	}
}

// substitute applies exactly k substitutions, so the planted copy keeps
// the pattern's length (mutate mixes in indels).
func substitute(rng *rand.Rand, s []byte, k int) []byte {
	out := slices.Clone(s)
	for ; k > 0; k-- {
		p := rng.Intn(len(out))
		out[p] = (out[p] + 1 + byte(rng.Intn(3))) % 4
	}
	return out
}

// TestVerifierVsDP sweeps every pattern length from 1 to 200 (one, two,
// three and four words, across both boundaries) against junk and planted
// windows shorter than, as long as and longer than the pattern, at every
// budget from 0 to 8 and at budgets no smaller than the pattern. One
// Verifier serves the whole sweep, its pattern length jumping between the
// extremes, and must agree with a fresh one each time.
func TestVerifierVsDP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var shared Verifier
	for step := 0; step < 200; step++ {
		m := 1 + step/2
		if step%2 == 0 {
			m = 200 - step/2
		}
		p := randSeq(rng, m)
		shared.Reset(p)
		edits := rng.Intn(6)
		cut := mutate(rng, p, edits)
		windows := [][]byte{
			nil,
			randSeq(rng, m/2),
			randSeq(rng, m),
			randSeq(rng, m+1+rng.Intn(20)),
			substitute(rng, p, min(edits, m)),
			slices.Concat(randSeq(rng, rng.Intn(9)), substitute(rng, p, min(edits, m)), randSeq(rng, rng.Intn(9))),
			slices.Concat(randSeq(rng, rng.Intn(9)), mutate(rng, p, edits), randSeq(rng, rng.Intn(9))),
			cut[:len(cut)*3/4],
		}
		for _, w := range windows {
			for _, k := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, m, m + 3} {
				checkAgainstDP(t, &shared, p, w, k)
				got, ok := shared.Verify(w, k)
				fresh, freshOK := Verify(p, w, k)
				if got != fresh || ok != freshOK {
					t.Fatalf("m=%d n=%d k=%d: reused verifier %+v %v, fresh %+v %v", m, len(w), k, got, ok, fresh, freshOK)
				}
			}
		}
	}
	// The band: for patterns across the 64- and 128-row block edges, every
	// window length from m − k to m + 2k at every budget k up to 20 (a band
	// wider than a block), each window holding an edited copy at a random
	// offset, then long texts over which every block stays live.
	for _, m := range []int{1, 20, 63, 64, 65, 100, 127, 128, 129, 150, 192, 193} {
		p := randSeq(rng, m)
		shared.Reset(p)
		for k := 0; k <= 20; k++ {
			for n := max(m-k, 0); n <= m+2*k; n++ {
				checkAgainstDP(t, &shared, p, plant(rng, mutate(rng, p, rng.Intn(k+1)), n), k)
			}
		}
		long := slices.Concat(randSeq(rng, 300), mutate(rng, p, 3), randSeq(rng, 150), mutate(rng, p, 12), randSeq(rng, 200))
		for _, k := range []int{0, 3, 12, 20} {
			checkAgainstDP(t, &shared, p, long, k)
		}
	}
}

// plant returns a window of n bases holding hit at a random offset, or a
// random n-base piece of hit when it does not fit.
func plant(rng *rand.Rand, hit []byte, n int) []byte {
	if len(hit) > n {
		at := rng.Intn(len(hit) - n + 1)
		return hit[at : at+n]
	}
	at := rng.Intn(n - len(hit) + 1)
	return slices.Concat(randSeq(rng, at), hit, randSeq(rng, n-at-len(hit)))
}

// TestBandWordsMatchesScan holds BandWords to the block-columns the scan
// computes when the hopeless exit is off, so that it runs every window to
// the last column.
func TestBandWordsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	text := randSeq(rng, 400)
	v := Verifier{noExit: true}
	for m := 1; m <= 260; m += 1 + m/8 {
		v.Reset(randSeq(rng, m))
		for _, k := range []int{0, 1, 2, 5, 7, 13, 20, 63, 64, 65, m - 1, m, m + 3} {
			for n := range min(m+2*k+70, len(text)) + 1 {
				v.cols = 0
				v.scan(v.peq, text[:n], 0, 1, k, nil)
				if want := BandWords(m, k, n); v.cols != want {
					t.Fatalf("m=%d k=%d n=%d: scan computed %d block-columns, BandWords %d", m, k, n, v.cols, want)
				}
			}
		}
	}
}

func TestVerifierEmptyPattern(t *testing.T) {
	var v Verifier
	w := []byte{0, 1, 2, 3}
	if m, ok := v.Verify(w, 2); !ok || m != (Match{}) {
		t.Errorf("zero Verifier: Verify = %+v %v, want the empty match", m, ok)
	}
	v.Reset(w)
	v.Reset(nil)
	if end, dist := v.Distance(w, 2); end != 0 || dist != 0 {
		t.Errorf("Reset(nil): Distance = (%d,%d) want (0,0)", end, dist)
	}
	v.Occurrences(w, 2, func(int, int) { t.Error("empty pattern reported a column") })
}

func TestVerifierDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, m := range []int{40, 100, 150, 200} {
		p := randSeq(rng, m)
		hit := slices.Concat(randSeq(rng, 5), mutate(rng, p, 3), randSeq(rng, 5))
		junk := randSeq(rng, m+10)
		var v Verifier
		v.Reset(p)
		if n := testing.AllocsPerRun(20, func() {
			v.Verify(hit, 5)
			v.Verify(junk, 5)
		}); n != 0 {
			t.Errorf("m=%d: Verify allocates %v times per run", m, n)
		}
		if n := testing.AllocsPerRun(20, func() { v.Reset(p) }); n != 0 {
			t.Errorf("m=%d: Reset to a pattern that fits allocates %v times per run", m, n)
		}
	}
}

// FuzzVerifierVsDP feeds arbitrary patterns, windows and budgets to one
// long-lived Verifier and holds it to the DP oracles, then cuts the
// window to every length from m − k to m + 2k at k mod 21.
func FuzzVerifierVsDP(f *testing.F) {
	f.Add([]byte("ACGTACGT"), []byte("TTACGAACGTTT"), uint8(2))
	f.Add([]byte{0}, []byte{}, uint8(0))
	f.Add(make([]byte, 130), make([]byte, 140), uint8(200))
	var v Verifier
	f.Fuzz(func(t *testing.T, rawP, rawW []byte, k uint8) {
		if len(rawP) == 0 {
			return
		}
		p := make([]byte, min(len(rawP), 200))
		for i := range p {
			p[i] = rawP[i] & 3
		}
		w := make([]byte, min(len(rawW), 300))
		for i := range w {
			w[i] = rawW[i] & 3
		}
		v.Reset(p)
		checkAgainstDP(t, &v, p, w, int(k))
		// Every window length the band distinguishes, the pattern's own
		// copy at either end.
		k %= 21
		ext := slices.Concat(w, p, w)
		for n := max(len(p)-int(k), 0); n <= min(len(p)+2*int(k), len(ext)); n++ {
			checkAgainstDP(t, &v, p, ext[:n], int(k))
			checkAgainstDP(t, &v, p, ext[len(ext)-n:], int(k))
		}
	})
}
