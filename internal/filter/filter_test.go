package filter

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/dna"
)

// randSeq returns n random base codes.
func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(dna.Alphabet))
	}
	return s
}

// mutate applies exactly e random edits (substitution, insertion or
// deletion) to a copy of pattern, producing a sequence the verifier is
// guaranteed to accept within e edits.
func mutate(rng *rand.Rand, pattern []byte, e int) []byte {
	out := append([]byte(nil), pattern...)
	for k := 0; k < e; k++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(out) > 0: // substitution
			i := rng.Intn(len(out))
			out[i] = byte(rng.Intn(dna.Alphabet))
		case op == 1: // insertion
			i := rng.Intn(len(out) + 1)
			out = append(out, 0)
			copy(out[i+1:], out[i:])
			out[i] = byte(rng.Intn(dna.Alphabet))
		case len(out) > 0: // deletion
			i := rng.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		}
	}
	return out
}

// window builds a candidate window around body: random padding on both
// sides, total length between n-delta and n+2*delta like the padded
// windows the verification stage extracts.
func window(rng *rand.Rand, body []byte, n, delta int) []byte {
	pad := n + 2*delta - len(body)
	if pad < 0 {
		pad = 0
	}
	left := 0
	if pad > 0 {
		left = rng.Intn(pad + 1)
	}
	w := make([]byte, 0, len(body)+pad)
	w = append(w, randSeq(rng, left)...)
	w = append(w, body...)
	w = append(w, randSeq(rng, pad-left)...)
	return w
}

// oracleTrial runs one randomized trial and reports a false reject:
// the Myers verifier accepts the window but the filter rejects it.
func oracleTrial(t *testing.T, rng *rand.Rand, st *State, delta int) {
	t.Helper()
	n := 1 + rng.Intn(120)
	pattern := randSeq(rng, n)
	var body []byte
	if rng.Intn(2) == 0 {
		// Planted instance: the window provably contains a ≤delta match.
		body = mutate(rng, pattern, rng.Intn(delta+1))
	} else {
		// Junk instance: usually unverifiable, exercises rejection.
		body = randSeq(rng, n)
	}
	win := window(rng, body, n, delta)
	if len(win) < n-delta {
		return // the pipeline skips windows that cannot contain a match
	}
	_, verifies := align.Verify(pattern, win, delta)
	st.Prepare(pattern, delta)
	accepted, _ := st.Accept(win)
	if verifies && !accepted {
		t.Fatalf("false reject: delta=%d n=%d pattern=%v window=%v",
			delta, n, pattern, win)
	}
}

// TestFilterNeverFalseRejects is the superset-invariant oracle: across
// randomized patterns and windows for δ ∈ {0,1,2,3}, the filter never
// rejects a window the Myers verifier accepts.
func TestFilterNeverFalseRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var st State
	for delta := 0; delta <= 3; delta++ {
		for trial := 0; trial < 4000; trial++ {
			oracleTrial(t, rng, &st, delta)
		}
	}
}

// TestFilterNeverFalseRejectsParallel runs the same oracle from many
// goroutines with per-goroutine states, so -race observes the filter
// scratch being used the way concurrent host workers use it.
func TestFilterNeverFalseRejectsParallel(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var st State
			for delta := 0; delta <= 3; delta++ {
				for trial := 0; trial < 800; trial++ {
					oracleTrial(t, rng, &st, delta)
				}
			}
		}(int64(g + 100))
	}
	wg.Wait()
}

// TestFilterRejectsJunk pins the filter's reason to exist: on fully
// random windows (no planted match) at realistic read length it must
// reject a substantial fraction, else it is a no-op stage.
func TestFilterRejectsJunk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, delta := range []int{0, 1, 2, 3} {
		var st State
		rejected, trials := 0, 2000
		for i := 0; i < trials; i++ {
			pattern := randSeq(rng, 100)
			win := randSeq(rng, 100+2*delta)
			st.Prepare(pattern, delta)
			if ok, _ := st.Accept(win); !ok {
				rejected++
			}
		}
		frac := float64(rejected) / float64(trials)
		if frac < 0.3 {
			t.Errorf("delta=%d: rejected only %.1f%% of junk windows", delta, 100*frac)
		}
		t.Logf("delta=%d junk rejection: %.1f%%", delta, 100*frac)
	}
}

// TestFilterEdgeCases covers the degenerate paths.
func TestFilterEdgeCases(t *testing.T) {
	var st State
	st.Prepare(nil, 2)
	if ok, w := st.Accept([]byte{0, 1, 2}); !ok || w != 0 {
		t.Errorf("empty pattern: got (%t, %d), want accept at zero cost", ok, w)
	}
	pattern := dna.MustEncode("ACGTACGTACGT")
	st.Prepare(pattern, 1)
	if ok, w := st.Accept(pattern[:5]); ok || w != 0 {
		t.Errorf("short window: got (%t, %d), want reject at zero cost", ok, w)
	}
	// Threshold 2δ+1 ≥ n accepts trivially without scanning.
	st.Prepare(pattern[:3], 1)
	if ok, w := st.Accept(dna.MustEncode("TTTTT")); !ok || w != 0 {
		t.Errorf("trivial threshold: got (%t, %d), want accept at zero cost", ok, w)
	}
	// An exact match is always accepted and always charged.
	st.Prepare(pattern, 0)
	ok, w := st.Accept(pattern)
	if !ok || w <= 0 {
		t.Errorf("exact match: got (%t, %d), want accept with positive cost", ok, w)
	}
}

// TestFilterCostScales checks the charged filter words grow with the
// shift count: the δ=3 scan must cost more than the δ=0 scan on the
// same pattern/window pair, and both must be positive.
func TestFilterCostScales(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pattern := randSeq(rng, 100)
	win := randSeq(rng, 106)
	var st State
	st.Prepare(pattern, 0)
	_, w0 := st.Accept(win[:100])
	st.Prepare(pattern, 3)
	_, w3 := st.Accept(win)
	if w0 <= 0 || w3 <= w0 {
		t.Errorf("filter words: delta0=%d delta3=%d, want 0 < delta0 < delta3", w0, w3)
	}
}

// TestFilterZeroAllocSteadyState pins the hot path at zero allocations
// once the scratch has grown to the working size — the same contract
// the simulated kernels are held to by clvet and AllocsPerRun pins.
// One State is also taken through patterns of three, one and two words
// at δ 2, 20 and 2: warm, it allocates nothing and keeps naiveAccept's
// verdicts and words, so no padding or spare register word a smaller
// Prepare leaves behind goes stale.
func TestFilterZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pattern := randSeq(rng, 150)
	// Odd windows hold a planted match, so the walk runs too.
	wins := make([][]byte, 16)
	for i := range wins {
		wins[i] = randSeq(rng, 150+2*3)
		if i%2 == 1 {
			wins[i] = window(rng, mutate(rng, pattern, 3), 150, 3)
		}
	}
	text := dna.Pack(bytes.Join(wins, nil))
	var st State
	st.Prepare(pattern, 3)
	st.Accept(wins[0]) // warm the scratch
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		st.Prepare(pattern, 3)
		st.Accept(wins[i%len(wins)])
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Prepare+Accept allocates %.1f times per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		st.Prepare(pattern, 3)
		lo := (i % len(wins)) * len(wins[0])
		st.AcceptPacked(text, lo, lo+len(wins[0]))
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Prepare+AcceptPacked allocates %.1f times per run, want 0", allocs)
	}

	type run struct {
		pattern, win []byte
		packed       dna.PackedSeq
		delta, lo    int
		want         bool
		words        int64
	}
	var runs []run
	for _, n := range []int{150, 60, 100} { // 3, 1 and 2 words
		pattern := randSeq(rng, n)
		for _, delta := range []int{2, 20, 2} {
			for _, body := range [][]byte{randSeq(rng, n), mutate(rng, pattern, delta)} {
				win := window(rng, body, n, delta)[:n+2*delta]
				pre := randSeq(rng, rng.Intn(2*delta+8))
				r := run{pattern: pattern, win: win, packed: dna.Pack(append(pre, win...)), delta: delta, lo: len(pre)}
				r.want, r.words = naiveAccept(pattern, win, delta)
				runs = append(runs, r)
			}
		}
	}
	wrong := 0
	check := func() {
		r := &runs[i%len(runs)]
		i++
		st.Prepare(r.pattern, r.delta)
		ok, w := st.Accept(r.win)
		okP, wP := st.AcceptPacked(r.packed, r.lo, r.lo+len(r.win))
		if ok != r.want || okP != r.want || w != r.words || wP != r.words {
			wrong++
		}
	}
	for range runs {
		check() // warm the scratch for every shape
	}
	if allocs := testing.AllocsPerRun(5*len(runs), check); allocs != 0 {
		t.Errorf("Prepare+Accept+AcceptPacked across 3→1→2 words and δ 2→20→2 allocates %.1f times per run, want 0", allocs)
	}
	if wrong != 0 {
		t.Errorf("%d of %d runs across 3→1→2 words and δ 2→20→2 differ from naiveAccept", wrong, 6*len(runs)+1)
	}
}

// TestFilterShiftSetIsTight plants alignments on the outermost
// diagonals the window allows: a body with exactly δ pattern bases
// deleted (n−δ long) or δ window bases inserted (n+δ long), placed
// flush left or flush right in an n+2δ window, with the edits at the
// end it is flush against or at random. A body of n−δ bases flush
// right starts at 3δ, so its leading columns sit on diagonal 3δ, the
// top of S; flush left its trailing ones sit on −δ, the bottom. The
// random oracle rarely builds either.
func TestFilterShiftSetIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var st State
	for _, delta := range []int{1, 2, 3, 5} {
		for n := 20; n <= 150; n++ {
			for trial := 0; trial < 8; trial++ {
				pattern := randSeq(rng, n)
				body := append([]byte(nil), pattern...)
				insert, flushRight := trial&1 == 1, trial&2 == 2
				for k := 0; k < delta; k++ {
					// trial 0–3: edits bunched at the end the body is
					// flush against; 4–7: anywhere.
					i := rng.Intn(len(body))
					if trial < 4 {
						i = 0
						if flushRight {
							i = len(body) - 1
						}
					}
					if insert {
						body = append(body[:i], append([]byte{byte(rng.Intn(dna.Alphabet))}, body[i:]...)...)
					} else {
						body = append(body[:i], body[i+1:]...)
					}
				}
				pad := randSeq(rng, n+2*delta-len(body))
				win := append(append([]byte(nil), pad...), body...)
				if !flushRight {
					win = append(append([]byte(nil), body...), pad...)
				}
				if _, ok := align.Verify(pattern, win, delta); !ok {
					continue
				}
				st.Prepare(pattern, delta)
				if ok, _ := st.Accept(win); !ok {
					t.Fatalf("false reject: delta=%d n=%d insert=%t flushRight=%t pattern=%v window=%v",
						delta, n, insert, flushRight, pattern, win)
				}
			}
		}
	}
}

// TestFilterRejectsNearMisses holds the filter to the false accepts a
// repetitive reference produces: 100-base patterns with δ+1 … 3δ+1
// random substitutions, padded into n+2δ windows, that Myers rejects.
// Nearly every base of such a window still matches at shift 0, so the
// amended popcount passes it; only the walk, which pays an obstacle at
// each substituted column no shift runs across, rejects it.
func TestFilterRejectsNearMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 100
	for _, delta := range []int{1, 2, 3} {
		var st State
		accepted, trials := 0, 0
		for trials < 2000 {
			pattern := randSeq(rng, n)
			body := append([]byte(nil), pattern...)
			subs := delta + 1 + rng.Intn(2*delta+1)
			for _, i := range rng.Perm(n)[:subs] {
				body[i] = (body[i] + byte(1+rng.Intn(dna.Alphabet-1))) % dna.Alphabet
			}
			win := append(append(randSeq(rng, delta), body...), randSeq(rng, delta)...)
			if _, ok := align.Verify(pattern, win, delta); ok {
				continue
			}
			trials++
			st.Prepare(pattern, delta)
			if ok, _ := st.Accept(win); ok {
				accepted++
			}
		}
		frac := float64(accepted) / float64(trials)
		if frac > 0.05 {
			t.Errorf("delta=%d: accepted %.1f%% of near-miss windows, want <= 5%%", delta, 100*frac)
		}
		t.Logf("delta=%d near-miss accepts: %.1f%%", delta, 100*frac)
	}
}

// TestFilterAcceptsAtExactDistance checks the walk's lower bound where
// it is tight: for a candidate whose least verifying budget is δ*, the
// filter prepared at δ* must accept δ*'s window. At any larger budget
// the bound has slack; here one obstacle too many is a false reject.
func TestFilterAcceptsAtExactDistance(t *testing.T) {
	const maxDelta = 8
	rng := rand.New(rand.NewSource(7))
	var st State
	for trial := 0; trial < 4000; trial++ {
		n := 10 + rng.Intn(140)
		pattern := randSeq(rng, n)
		body := mutate(rng, pattern, rng.Intn(maxDelta+1))
		wide := append(append(randSeq(rng, maxDelta), body...), randSeq(rng, maxDelta)...)
		// The mapper's window for a candidate at the body's start.
		at := func(delta int) []byte {
			return wide[maxDelta-delta : min(maxDelta+n+delta, len(wide))]
		}
		for delta := 0; delta <= maxDelta; delta++ {
			win := at(delta)
			if len(win) < n-delta {
				continue
			}
			if _, ok := align.Verify(pattern, win, delta); !ok {
				continue
			}
			st.Prepare(pattern, delta)
			if ok, _ := st.Accept(win); !ok {
				t.Fatalf("false reject at the exact distance %d: n=%d pattern=%v window=%v",
					delta, n, pattern, win)
			}
			break
		}
	}
}

// FuzzFilterVsVerify holds the zero-false-reject contract over
// arbitrary (pattern, window, δ ≤ 8): every window Verify accepts, cut
// to the n+2δ bases the mapper's window spans, the filter accepts.
func FuzzFilterVsVerify(f *testing.F) {
	f.Add([]byte("ACGTACGTTGCAACGTAGCT"), []byte("ACGTACGTTGCAACGTAGCT"), uint8(0))
	f.Add([]byte("ACGTACGTTGCAACGTAGCT"), []byte("GGACGTACTTGCAACGAGCTAA"), uint8(2))
	f.Add([]byte("TTTTTTTTTTAAAAAAAAAACCCCCCCCCC"), []byte("TTTTTTTTTAAAAAAAAAACCCCCCCCCCGG"), uint8(3))
	f.Add(bytes.Repeat([]byte("ACGGT"), 30), append([]byte("CC"), bytes.Repeat([]byte("ACGT"), 37)...), uint8(8))
	var st State
	f.Fuzz(func(t *testing.T, p, w []byte, d uint8) {
		delta := int(d % 9)
		pattern, win := make([]byte, len(p)), make([]byte, len(w))
		for i, b := range p {
			pattern[i] = b & 3
		}
		for i, b := range w {
			win[i] = b & 3
		}
		n := len(pattern)
		win = win[:min(len(win), n+2*delta)]
		if len(win) < n-delta {
			return
		}
		if _, ok := align.Verify(pattern, win, delta); !ok {
			return
		}
		st.Prepare(pattern, delta)
		if ok, _ := st.Accept(win); !ok {
			t.Fatalf("false reject: delta=%d pattern=%v window=%v", delta, pattern, win)
		}
	})
}

// naiveAccept is the filter of the package doc computed base by base:
// a mask per shift in {−δ … 3δ}, the amended popcount, then the
// SneakySnake walk over the unamended masks. It also returns the
// filter words the doc charges: Shifts(δ)·wp + 4·vw for the first cut,
// with vw = max(wp, ⌈(L+δ)/64⌉) words per one-hot window register, and
// one more per (shift, mask word) the walk reads, where a shift's run
// from column pos is read from the word holding pos to the word holding
// its first mismatch, and no shift is read once some run reaches n.
func naiveAccept(pattern, win []byte, delta int) (bool, int64) {
	n, L := len(pattern), len(win)
	switch {
	case n == 0:
		return true, 0
	case L < n-delta:
		return false, 0
	case Threshold(delta) >= n:
		return true, 0
	}
	wp := (n + 63) / 64
	words := int64(Shifts(delta)*wp + dna.Alphabet*max(wp, (L+delta+63)/64))
	match := func(s, p int) bool { j := p + s; return j >= 0 && j < L && pattern[p] == win[j] }
	unmatched := 0
	for p := 0; p < n; p++ {
		solid := false
		for s := -delta; s <= 3*delta; s++ {
			solid = solid || match(s, p) && (p > 0 && match(s, p-1) || p+1 < n && match(s, p+1))
		}
		if !solid {
			unmatched++
		}
	}
	if unmatched > Threshold(delta) {
		return false, words
	}
	for pos, obstacles := 0, 0; ; obstacles++ {
		reach := pos
		for s := -delta; s <= 3*delta && reach < n; s++ {
			end := pos
			for end < n && match(s, end) {
				end++
			}
			words += int64(min(end/64, wp-1) - pos/64 + 1)
			reach = max(reach, end)
		}
		if reach >= n {
			return true, words
		}
		if obstacles == delta {
			return false, words
		}
		if pos = reach + 1; pos >= n {
			return true, words
		}
	}
}

// checkNaive fails t unless Accept over text[lo, hi) and AcceptPacked
// over the same window of the packed text, after one Prepare, give
// naiveAccept's verdict and words.
func checkNaive(t *testing.T, st *State, pattern, text []byte, delta, lo, hi int) {
	t.Helper()
	want, words := naiveAccept(pattern, text[lo:hi], delta)
	st.Prepare(pattern, delta)
	if got, w := st.Accept(text[lo:hi]); got != want || w != words {
		t.Fatalf("Accept = (%t, %d), naive (%t, %d): delta=%d pattern=%v window=%v",
			got, w, want, words, delta, pattern, text[lo:hi])
	}
	if got, w := st.AcceptPacked(dna.Pack(text), lo, hi); got != want || w != words {
		t.Fatalf("AcceptPacked = (%t, %d), naive (%t, %d): delta=%d lo=%d pattern=%v window=%v",
			got, w, want, words, delta, lo, pattern, text[lo:hi])
	}
}

// TestAcceptMatchesNaive is the charge oracle: both loaders give
// naiveAccept's verdict and words, with one State re-prepared for
// every pattern, for patterns of one, two and three or more words and
// δ up to 20, where 4δ ≥ 64 and a shift crosses a register word. In
// each group the window length n+2δ stays the same while n and δ
// change, so a mask a State keeps from one Prepare to the next is
// caught if it goes stale; every fourth group cuts its windows to
// n−δ … n+2δ bases. The packed window starts up to 2δ+7 bases into
// its text, so it is loaded both from δ bases before it and moved up.
func TestAcceptMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var st State
	for trial := 0; trial < 400; trial++ {
		L := 20 + rng.Intn(240)
		for delta := 0; delta <= 20 && L-2*delta > 0; delta++ {
			n := L - 2*delta
			pattern := randSeq(rng, n)
			win := window(rng, mutate(rng, pattern, rng.Intn(3*delta+2)), n, delta)[:L]
			if trial%4 == 3 {
				win = win[:min(max(n-delta, 0)+rng.Intn(3*delta+1), L)]
			}
			pre := randSeq(rng, rng.Intn(2*delta+8))
			text := append(append(pre, win...), randSeq(rng, rng.Intn(8))...)
			checkNaive(t, &st, pattern, text, delta, len(pre), len(pre)+len(win))
		}
	}
}

// FuzzAcceptVsNaive is TestAcceptMatchesNaive over arbitrary (pattern,
// window, δ ≤ 20), the window placed d/21 bases into its packed text.
func FuzzAcceptVsNaive(f *testing.F) {
	f.Add([]byte("ACGTACGTTGCAACGTAGCT"), []byte("GGACGTACTTGCAACGAGCTAA"), uint8(2))
	f.Add(bytes.Repeat([]byte("ACGGT"), 30), append([]byte("CC"), bytes.Repeat([]byte("ACGT"), 37)...), uint8(8+21*3))
	f.Add(bytes.Repeat([]byte("TTAGC"), 28), append(bytes.Repeat([]byte("TTAGC"), 28), []byte("GATTACA")...), uint8(20+21*11))
	var st State
	f.Fuzz(func(t *testing.T, p, w []byte, d uint8) {
		delta, lo := int(d%21), int(d/21)
		pattern, text := make([]byte, min(len(p), 300)), make([]byte, lo+min(len(w), 400))
		for i := range pattern {
			pattern[i] = p[i] & 3
		}
		for i := range text[lo:] {
			text[lo+i] = w[i] & 3
		}
		checkNaive(t, &st, pattern, text, delta, lo, len(text))
	})
}

// checkPackedVsBytes fails t unless AcceptPacked over text[lo, hi)
// gives Accept's verdict and charge for the same window.
func checkPackedVsBytes(t *testing.T, st *State, pattern, text []byte, delta, lo, hi int) {
	t.Helper()
	st.Prepare(pattern, delta)
	okB, wB := st.Accept(text[lo:hi])
	okP, wP := st.AcceptPacked(dna.Pack(text), lo, hi)
	if okP != okB || wP != wB {
		t.Fatalf("AcceptPacked = (%t, %d), Accept = (%t, %d): delta=%d lo=%d hi=%d len=%d pattern=%v text=%v",
			okP, wP, okB, wB, delta, lo, hi, len(text), pattern, text)
	}
}

// TestAcceptPackedMatchesAccept holds the packed loader to the byte
// loader: the same verdict and the same words charged, for windows
// starting anywhere in a packed byte, ending at a text end that is not
// a whole byte, patterns of one, two and three or more words, and
// δ up to 20, where 4δ ≥ 64 and a shift crosses a whole register word.
func TestAcceptPackedMatchesAccept(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var st State
	for trial := 0; trial < 6000; trial++ {
		delta := trial % 21
		n := 1 + rng.Intn(64) + 64*(trial/21%3) // 1, 2 or 3+ words
		pattern := randSeq(rng, n)
		body := randSeq(rng, n)
		if trial%2 == 0 {
			body = mutate(rng, pattern, rng.Intn(delta+1))
		}
		win := window(rng, body, n, delta)
		if trial%7 == 0 {
			win = win[:rng.Intn(len(win)+1)] // short, or clipped at a text end
		}
		pre, post := randSeq(rng, rng.Intn(8)), randSeq(rng, rng.Intn(3)*rng.Intn(8))
		text := append(append(append([]byte(nil), pre...), win...), post...)
		checkPackedVsBytes(t, &st, pattern, text, delta, len(pre), len(pre)+len(win))
	}
}

// FuzzAcceptPackedVsAccept is TestAcceptPackedMatchesAccept over
// arbitrary (pattern, text, δ ≤ 20, window).
func FuzzAcceptPackedVsAccept(f *testing.F) {
	f.Add([]byte("ACGTACGTTGCAACGTAGCT"), []byte("GACGTACGTTGCAACGTAGCTA"), uint8(0), uint16(1), uint16(20))
	f.Add([]byte("ACGTACGTTGCAACGTAGCT"), []byte("TTGGACGTACTTGCAACGAGCTAAG"), uint8(2), uint16(3), uint16(24))
	f.Add(bytes.Repeat([]byte("ACGGT"), 30), append([]byte("CCA"), bytes.Repeat([]byte("ACGT"), 45)...), uint8(20), uint16(2), uint16(183))
	var st State
	f.Fuzz(func(t *testing.T, p, x []byte, d uint8, l, h uint16) {
		pattern, text := make([]byte, len(p)), make([]byte, len(x))
		for i, b := range p {
			pattern[i] = b & 3
		}
		for i, b := range x {
			text[i] = b & 3
		}
		lo := int(l) % (len(text) + 1)
		hi := lo + int(h)%(len(text)-lo+1)
		checkPackedVsBytes(t, &st, pattern, text, int(d%21), lo, hi)
	})
}
