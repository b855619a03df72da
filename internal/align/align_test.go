package align

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dna"
)

func randSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

// mutate applies exactly k random edits (sub/ins/del) to s.
func mutate(rng *rand.Rand, s []byte, k int) []byte {
	out := append([]byte(nil), s...)
	for e := 0; e < k; e++ {
		if len(out) == 0 {
			out = append(out, byte(rng.Intn(4)))
			continue
		}
		p := rng.Intn(len(out))
		switch rng.Intn(3) {
		case 0: // substitution
			out[p] = (out[p] + 1 + byte(rng.Intn(3))) % 4
		case 1: // insertion
			out = append(out[:p], append([]byte{byte(rng.Intn(4))}, out[p:]...)...)
		default: // deletion
			out = append(out[:p], out[p+1:]...)
		}
	}
	return out
}

func TestDistanceExactMatch(t *testing.T) {
	p := dna.MustEncode("ACGTACGT")
	text := dna.MustEncode("TTTACGTACGTTTT")
	end, dist := Distance(p, text, 0)
	if dist != 0 || end != 11 {
		t.Errorf("Distance = (%d,%d) want (11,0)", end, dist)
	}
}

func TestDistanceNoMatch(t *testing.T) {
	p := dna.MustEncode("AAAAAAAA")
	text := dna.MustEncode("CCCCCCCCCCCC")
	end, dist := Distance(p, text, 2)
	if end != -1 || dist != -1 {
		t.Errorf("Distance = (%d,%d) want (-1,-1)", end, dist)
	}
}

func TestDistanceOneSub(t *testing.T) {
	p := dna.MustEncode("ACGTA")
	text := dna.MustEncode("GGACGGAGG")
	end, dist := Distance(p, text, 1)
	if dist != 1 || end != 7 {
		t.Errorf("Distance = (%d,%d) want (7,1)", end, dist)
	}
}

func TestDistanceEmptyPattern(t *testing.T) {
	end, dist := Distance(nil, dna.MustEncode("ACGT"), 3)
	if end != 0 || dist != 0 {
		t.Errorf("empty pattern = (%d,%d) want (0,0)", end, dist)
	}
}

func TestDistanceVsDPRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(150) // exercises 1-3 word patterns
		n := rng.Intn(250)
		p := randSeq(rng, m)
		text := randSeq(rng, n)
		maxDist := rng.Intn(8)
		gotEnd, gotDist := Distance(p, text, maxDist)
		wantEnd, wantDist := DistanceDP(p, text, maxDist)
		if gotEnd != wantEnd || gotDist != wantDist {
			t.Fatalf("trial %d (m=%d n=%d k=%d): Myers (%d,%d) DP (%d,%d)",
				trial, m, n, maxDist, gotEnd, gotDist, wantEnd, wantDist)
		}
	}
}

func TestDistanceVsDPPlanted(t *testing.T) {
	// Plant mutated copies so matches actually exist near the threshold.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		m := 30 + rng.Intn(120)
		p := randSeq(rng, m)
		k := rng.Intn(6)
		mutated := mutate(rng, p, k)
		pre := randSeq(rng, rng.Intn(40))
		post := randSeq(rng, rng.Intn(40))
		text := append(append(append([]byte{}, pre...), mutated...), post...)
		maxDist := k + rng.Intn(3)
		gotEnd, gotDist := Distance(p, text, maxDist)
		wantEnd, wantDist := DistanceDP(p, text, maxDist)
		if gotEnd != wantEnd || gotDist != wantDist {
			t.Fatalf("trial %d: Myers (%d,%d) DP (%d,%d)",
				trial, gotEnd, gotDist, wantEnd, wantDist)
		}
		if gotDist > k && gotDist >= 0 && k <= maxDist {
			t.Fatalf("trial %d: found dist %d but %d edits were planted", trial, gotDist, k)
		}
	}
}

func TestOccurrencesVsDP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		m := 5 + rng.Intn(80)
		p := randSeq(rng, m)
		text := append(append(randSeq(rng, 30), mutate(rng, p, rng.Intn(4))...), randSeq(rng, 30)...)
		maxDist := rng.Intn(6)
		type hit struct{ end, dist int }
		var got, want []hit
		Occurrences(p, text, maxDist, func(e, d int) { got = append(got, hit{e, d}) })
		OccurrencesDP(p, text, maxDist, func(e, d int) { want = append(want, hit{e, d}) })
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d hits want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: hit %d = %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestVerifyRecoversPlantedCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		m := 20 + rng.Intn(130)
		p := randSeq(rng, m)
		k := rng.Intn(5)
		mutated := mutate(rng, p, k)
		preLen := rng.Intn(15)
		window := append(append(randSeq(rng, preLen), mutated...), randSeq(rng, rng.Intn(15))...)
		match, ok := Verify(p, window, k)
		if !ok {
			t.Fatalf("trial %d: planted match with %d edits not found", trial, k)
		}
		if match.Dist > k {
			t.Fatalf("trial %d: dist %d > planted %d", trial, match.Dist, k)
		}
		if match.Start < 0 || match.End > len(window) || match.Start >= match.End {
			t.Fatalf("trial %d: bad coords %+v (window %d)", trial, match, len(window))
		}
		// The claimed region must actually align within the claimed
		// distance (check with the DP oracle on the exact slice).
		_, d := DistanceDP(p, window[match.Start:match.End], match.Dist)
		if d != match.Dist {
			t.Fatalf("trial %d: claimed dist %d, slice realigns to %d", trial, match.Dist, d)
		}
	}
}

func TestVerifyRejects(t *testing.T) {
	p := dna.MustEncode("ACACACACAC")
	w := dna.MustEncode("GTGTGTGTGTGTGTGT")
	if _, ok := Verify(p, w, 2); ok {
		t.Error("Verify accepted a hopeless window")
	}
}

func TestMyersProperty(t *testing.T) {
	f := func(rawP, rawT []byte, kRaw uint8) bool {
		if len(rawP) == 0 {
			return true
		}
		if len(rawP) > 200 {
			rawP = rawP[:200]
		}
		p := make([]byte, len(rawP))
		for i, b := range rawP {
			p[i] = b & 3
		}
		text := make([]byte, len(rawT))
		for i, b := range rawT {
			text[i] = b & 3
		}
		k := int(kRaw % 10)
		if k >= len(p) {
			k = len(p) - 1
		}
		gE, gD := Distance(p, text, k)
		wE, wD := DistanceDP(p, text, k)
		return gE == wE && gD == wD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistanceEdgeCases(t *testing.T) {
	// Text shorter than the pattern: alignment still possible via
	// deletions, DP and Myers must agree.
	p := dna.MustEncode("ACGTACGT")
	short := dna.MustEncode("ACG")
	gE, gD := Distance(p, short, 6)
	wE, wD := DistanceDP(p, short, 6)
	if gE != wE || gD != wD {
		t.Errorf("short text: Myers (%d,%d) DP (%d,%d)", gE, gD, wE, wD)
	}
	// Empty text: no columns, no match.
	if e, d := Distance(p, nil, 3); e != -1 || d != -1 {
		t.Errorf("empty text = (%d,%d)", e, d)
	}
	// maxDist >= pattern length is clamped but stays sound.
	if _, d := Distance(dna.MustEncode("AC"), dna.MustEncode("GGGG"), 10); d > 2 {
		t.Errorf("clamped distance %d > pattern length", d)
	}
	// Pattern of exactly 64 and 65 bases (word boundary).
	rng := rand.New(rand.NewSource(99))
	for _, m := range []int{63, 64, 65, 127, 128, 129} {
		pat := randSeq(rng, m)
		text := append(append(randSeq(rng, 20), pat...), randSeq(rng, 20)...)
		gE, gD := Distance(pat, text, 2)
		wE, wD := DistanceDP(pat, text, 2)
		if gE != wE || gD != wD {
			t.Errorf("m=%d: Myers (%d,%d) DP (%d,%d)", m, gE, gD, wE, wD)
		}
	}
}

// TestBandWords pins the charge of the windows the mappers verify:
// against the full scan's ⌈m/64⌉ words per column, the band keeps the
// block-columns within maxDist of a diagonal a window can hold.
func TestBandWords(t *testing.T) {
	for _, tc := range []struct{ m, k, n, want int }{
		{100, 5, 110, 131},  // full scan 220
		{100, 2, 104, 113},  // 208
		{100, 0, 100, 101},  // 200
		{150, 7, 164, 222},  // 492
		{64, 3, 70, 70},     // one block runs every column
		{100, 5, 94, 0},     // too short for any match
		{100, 200, 50, 100}, // a budget past m bands nothing
		{0, 5, 10, 0},
	} {
		if got := BandWords(tc.m, tc.k, tc.n); got != tc.want {
			t.Errorf("BandWords(%d, %d, %d) = %d want %d", tc.m, tc.k, tc.n, got, tc.want)
		}
	}
}

// verifierSink keeps the benchmark's calls from being optimised away.
var verifierSink Match

// BenchmarkVerifier measures the per-window cost a mapper pays: one
// Verifier reset per read, then a pipeline-shaped mix of windows — five
// junk for every planted hit (verified_ratio is 0.16 on map-verify).
func BenchmarkVerifier(b *testing.B) {
	for _, tc := range []struct{ m, k int }{{100, 5}, {150, 7}} {
		b.Run(fmt.Sprint(tc.m, "bp"), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(tc.m)))
			p := randSeq(rng, tc.m)
			var wins [6][]byte
			for i := range wins {
				wins[i] = randSeq(rng, tc.m+2*tc.k)
			}
			wins[3] = append(append(randSeq(rng, tc.k), mutate(rng, p, 3)...), randSeq(rng, tc.k)...)
			var v Verifier
			v.Reset(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verifierSink, _ = v.Verify(wins[i%len(wins)], tc.k)
			}
		})
	}
}

func BenchmarkDP100x110(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	p := randSeq(rng, 100)
	w := append(append(randSeq(rng, 5), mutate(rng, p, 3)...), randSeq(rng, 5)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DistanceDP(p, w, 5)
	}
}
