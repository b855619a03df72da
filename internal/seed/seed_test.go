package seed

import (
	"math/rand"
	"testing"

	"repro/internal/dna"
	"repro/internal/fmindex"
)

func randText(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(rng.Intn(4))
	}
	return t
}

// repetitiveText makes a text with heavy repeat structure so seed
// frequencies differ wildly across the read — the regime where DP
// filtration beats heuristics.
func repetitiveText(rng *rand.Rand, n int) []byte {
	motif := randText(rng, 8)
	out := make([]byte, 0, n)
	for len(out) < n {
		if rng.Intn(3) == 0 {
			out = append(out, motif...)
		} else {
			out = append(out, randText(rng, 8)...)
		}
	}
	return out[:n]
}

func checkPartition(t *testing.T, sel Selection, readLen, parts int) {
	t.Helper()
	if len(sel.Seeds) != parts {
		t.Fatalf("got %d seeds want %d", len(sel.Seeds), parts)
	}
	pos := 0
	for i, s := range sel.Seeds {
		if s.Start != pos {
			t.Fatalf("seed %d starts at %d want %d", i, s.Start, pos)
		}
		if s.End <= s.Start {
			t.Fatalf("seed %d empty: %+v", i, s)
		}
		pos = s.End
	}
	if pos != readLen {
		t.Fatalf("partition ends at %d want %d", pos, readLen)
	}
}

func checkCounts(t *testing.T, ix *fmindex.Index, read []byte, sel Selection) {
	t.Helper()
	total := 0
	for i, s := range sel.Seeds {
		want := ix.Count(read[s.Start:s.End])
		if s.Count() != want {
			t.Fatalf("seed %d count %d want %d (seed %q)",
				i, s.Count(), want, dna.Decode(read[s.Start:s.End]))
		}
		total += want
	}
	if sel.TotalCandidates != total {
		t.Fatalf("TotalCandidates %d want %d", sel.TotalCandidates, total)
	}
}

// bruteForceOptimal enumerates every legal divider placement and returns
// the minimal total candidate count.
func bruteForceOptimal(ix *fmindex.Index, read []byte, errors, smin int) int {
	n := len(read)
	parts := errors + 1
	best := -1
	ends := make([]int, parts+1)
	ends[0] = 0
	ends[parts] = n
	var rec func(i, prev int, sum int)
	rec = func(i, prev, sum int) {
		if i == parts {
			if prev != n {
				return
			}
			if best < 0 || sum < best {
				best = sum
			}
			return
		}
		if i == parts-1 {
			// Last seed is forced to [prev, n).
			if n-prev < smin {
				return
			}
			rec(parts, n, sum+ix.Count(read[prev:n]))
			return
		}
		for end := prev + smin; end <= n-(parts-1-i)*smin; end++ {
			rec(i+1, end, sum+ix.Count(read[prev:end]))
		}
	}
	rec(0, 0, 0)
	return best
}

func allSelectors() []Selector {
	return []Selector{Uniform{}, OSS{}, REPUTE{}, CORAL{}}
}

func TestSelectorsProducePartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	text := repetitiveText(rng, 3000)
	ix := fmindex.Build(text, fmindex.Options{})
	for trial := 0; trial < 25; trial++ {
		n := 40 + rng.Intn(110)
		start := rng.Intn(len(text) - n)
		read := text[start : start+n]
		errors := 1 + rng.Intn(5)
		smin := 3 + rng.Intn(5)
		if (errors+1)*smin > n {
			smin = n / (errors + 1)
		}
		p := Params{Errors: errors, MinSeedLen: smin}
		for _, sel := range allSelectors() {
			got, err := sel.Select(ix, read, p)
			if err != nil {
				t.Fatalf("%s: %v", sel.Name(), err)
			}
			checkPartition(t, got, n, errors+1)
			checkCounts(t, ix, read, got)
			if got.FMSteps <= 0 {
				t.Fatalf("%s: no FM steps accounted", sel.Name())
			}
		}
	}
}

func TestREPUTEOptimalVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	text := repetitiveText(rng, 800)
	ix := fmindex.Build(text, fmindex.Options{})
	for trial := 0; trial < 40; trial++ {
		n := 12 + rng.Intn(14)
		start := rng.Intn(len(text) - n)
		read := text[start : start+n]
		errors := 1 + rng.Intn(2)
		smin := 2 + rng.Intn(3)
		if (errors+1)*smin > n {
			continue
		}
		got, err := (REPUTE{}).Select(ix, read, Params{Errors: errors, MinSeedLen: smin})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceOptimal(ix, read, errors, smin)
		if got.TotalCandidates != want {
			t.Fatalf("trial %d (n=%d δ=%d smin=%d): REPUTE total %d, brute force %d",
				trial, n, errors, smin, got.TotalCandidates, want)
		}
		for i, s := range got.Seeds {
			if s.Len() < smin {
				t.Fatalf("trial %d: seed %d shorter than Smin: %+v", trial, i, s)
			}
		}
		checkAgainstOracle(t, ix, read, errors, smin)
	}
}

func TestOSSOptimalVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	text := repetitiveText(rng, 600)
	ix := fmindex.Build(text, fmindex.Options{})
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(10)
		start := rng.Intn(len(text) - n)
		read := text[start : start+n]
		errors := 1 + rng.Intn(2)
		got, err := (OSS{}).Select(ix, read, Params{Errors: errors})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceOptimal(ix, read, errors, 1)
		if got.TotalCandidates != want {
			t.Fatalf("trial %d: OSS total %d, brute force %d", trial, got.TotalCandidates, want)
		}
		checkAgainstOracle(t, ix, read, errors, 1)
	}
}

func TestSelectorOrdering(t *testing.T) {
	// OSS (unconstrained optimum) <= REPUTE (constrained optimum)
	// <= Uniform (one feasible partition), whenever uniform is feasible.
	rng := rand.New(rand.NewSource(4))
	text := repetitiveText(rng, 5000)
	ix := fmindex.Build(text, fmindex.Options{})
	for trial := 0; trial < 30; trial++ {
		n := 100
		start := rng.Intn(len(text) - n)
		read := text[start : start+n]
		errors := 3 + rng.Intn(3)
		smin := 8
		p := Params{Errors: errors, MinSeedLen: smin}
		oss, err := (OSS{}).Select(ix, read, p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := (REPUTE{}).Select(ix, read, p)
		if err != nil {
			t.Fatal(err)
		}
		uni, err := (Uniform{}).Select(ix, read, p)
		if err != nil {
			t.Fatal(err)
		}
		if oss.TotalCandidates > rep.TotalCandidates {
			t.Fatalf("trial %d: OSS %d > REPUTE %d", trial, oss.TotalCandidates, rep.TotalCandidates)
		}
		if rep.TotalCandidates > uni.TotalCandidates {
			t.Fatalf("trial %d: REPUTE %d > uniform %d", trial, rep.TotalCandidates, uni.TotalCandidates)
		}
	}
}

func TestREPUTEMemorySmallerThanOSS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	text := randText(rng, 4000)
	ix := fmindex.Build(text, fmindex.Options{})
	read := text[1000:1100]
	p := Params{Errors: 5, MinSeedLen: 14}
	rep, err := (REPUTE{}).Select(ix, read, p)
	if err != nil {
		t.Fatal(err)
	}
	oss, err := (OSS{}).Select(ix, read, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakMemBytes >= oss.PeakMemBytes {
		t.Errorf("REPUTE mem %d not below OSS mem %d", rep.PeakMemBytes, oss.PeakMemBytes)
	}
	if rep.DPCells >= oss.DPCells {
		t.Errorf("REPUTE cells %d not below OSS cells %d", rep.DPCells, oss.DPCells)
	}
}

func TestSminTradeoff(t *testing.T) {
	// Larger Smin must not decrease total candidates (smaller exploration
	// space can only do worse or equal), and must not increase DP cells.
	rng := rand.New(rand.NewSource(6))
	text := repetitiveText(rng, 8000)
	ix := fmindex.Build(text, fmindex.Options{})
	read := text[4000:4100]
	prevCand := -1
	prevCells := 1 << 30
	for _, smin := range []int{8, 12, 16, 20} {
		sel, err := (REPUTE{}).Select(ix, read, Params{Errors: 4, MinSeedLen: smin})
		if err != nil {
			t.Fatal(err)
		}
		if prevCand >= 0 && sel.TotalCandidates < prevCand {
			t.Errorf("Smin %d: candidates %d dropped below smaller-Smin %d",
				smin, sel.TotalCandidates, prevCand)
		}
		if sel.DPCells > prevCells {
			t.Errorf("Smin %d: DP cells %d grew over smaller-Smin %d",
				smin, sel.DPCells, prevCells)
		}
		prevCand, prevCells = sel.TotalCandidates, sel.DPCells
	}
}

func TestCORALThreshold(t *testing.T) {
	// With a tiny threshold CORAL grows long seeds; with a huge one it
	// stops at Smin. Both must remain valid partitions.
	rng := rand.New(rand.NewSource(7))
	text := repetitiveText(rng, 4000)
	ix := fmindex.Build(text, fmindex.Options{})
	read := text[2000:2100]
	for _, freq := range []int{1, 4, 1000000} {
		sel, err := (CORAL{}).Select(ix, read, Params{Errors: 4, MinSeedLen: 10, MaxSeedFreq: freq})
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, sel, len(read), 5)
		checkCounts(t, ix, read, sel)
	}
}

func TestZeroErrorsSingleSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	text := randText(rng, 1000)
	ix := fmindex.Build(text, fmindex.Options{})
	read := text[100:150]
	for _, s := range allSelectors() {
		sel, err := s.Select(ix, read, Params{Errors: 0, MinSeedLen: 10})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		checkPartition(t, sel, 50, 1)
		if sel.Seeds[0].Count() < 1 {
			t.Errorf("%s: planted read has zero candidates", s.Name())
		}
	}
}

func TestParamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	text := randText(rng, 200)
	ix := fmindex.Build(text, fmindex.Options{})
	read := text[0:10]
	if _, err := (REPUTE{}).Select(ix, read, Params{Errors: -1}); err == nil {
		t.Error("negative errors accepted")
	}
	if _, err := (REPUTE{}).Select(ix, read, Params{Errors: 20}); err == nil {
		t.Error("more seeds than bases accepted")
	}
	if _, err := (REPUTE{}).Select(ix, read, Params{Errors: 2, MinSeedLen: 6}); err == nil {
		t.Error("infeasible Smin accepted")
	}
}

func TestSeedCountHelpers(t *testing.T) {
	s := Seed{Start: 3, End: 10, Lo: 5, Hi: 9}
	if s.Len() != 7 || s.Count() != 4 {
		t.Errorf("Len/Count = %d/%d want 7/4", s.Len(), s.Count())
	}
	empty := Seed{Start: 0, End: 4, Lo: 9, Hi: 9}
	if empty.Count() != 0 {
		t.Errorf("empty seed Count = %d want 0", empty.Count())
	}
}

func BenchmarkREPUTESelect100(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	text := repetitiveText(rng, 200_000)
	ix := fmindex.Build(text, fmindex.Options{})
	read := text[100_000:100_100]
	p := Params{Errors: 5, MinSeedLen: 14}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (REPUTE{}).Select(ix, read, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOSSSelect100(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	text := repetitiveText(rng, 200_000)
	ix := fmindex.Build(text, fmindex.Options{})
	read := text[100_000:100_100]
	p := Params{Errors: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (OSS{}).Select(ix, read, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCORALSelect100(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	text := repetitiveText(rng, 200_000)
	ix := fmindex.Build(text, fmindex.Options{})
	read := text[100_000:100_100]
	p := Params{Errors: 5, MinSeedLen: 14}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (CORAL{}).Select(ix, read, p); err != nil {
			b.Fatal(err)
		}
	}
}
