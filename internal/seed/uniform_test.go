package seed

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fmindex"
)

// uniformOracle is Uniform's selection one seed at a time: a searchSeed
// per seed of the equal-length partition.
func uniformOracle(ix *fmindex.Index, read []byte, errors int) Selection {
	n, parts := len(read), errors+1
	sel := Selection{Seeds: make([]Seed, parts), PeakMemBytes: parts * 16}
	for i := range sel.Seeds {
		start, end := i*n/parts, (i+1)*n/parts
		lo, hi, steps := searchSeed(ix, read, start, end)
		sel.Seeds[i] = Seed{Start: start, End: end, Lo: lo, Hi: hi}
		sel.FMSteps += steps
	}
	sel.TotalCandidates = totalOf(sel.Seeds)
	return sel
}

// checkUniform holds Uniform.Select to uniformOracle and reports how many
// of its seeds emptied before their first base and how many of its k-mer
// lookups missed, so callers can tell those paths were taken.
func checkUniform(t *testing.T, ix *fmindex.Index, read []byte, errors int) (emptiedEarly, lookupMissed int) {
	t.Helper()
	got, err := Uniform{}.Select(ix, read, Params{Errors: errors})
	if err != nil {
		t.Fatalf("Select(δ=%d, n=%d): %v", errors, len(read), err)
	}
	want := uniformOracle(ix, read, errors)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("δ=%d read %v:\nlockstep  %+v\nper seed  %+v", errors, read, got, want)
	}
	for _, s := range got.Seeds {
		if s.Count() == 0 {
			if lo, hi := ix.Range(read[s.Start+1 : s.End]); lo < hi {
				continue
			}
			emptiedEarly++
		}
		if d := min(ix.Depth(), s.Len()); d > 0 {
			if lo, hi := ix.Lookup(read[s.End-d : s.End]); lo >= hi {
				lookupMissed++
			}
		}
	}
	return emptiedEarly, lookupMissed
}

// gappedText draws from all four bases but never puts a T after a G, so
// every pattern holding "GT" misses the k-mer table and every seed
// holding it empties.
func gappedText(rng *rand.Rand, n int) []byte {
	text := randText(rng, n)
	for i := 1; i < n; i++ {
		if text[i-1] == 2 && text[i] == 3 {
			text[i] = byte(rng.Intn(3))
		}
	}
	return text
}

// TestUniformLockstepVsSearchSeed holds the lockstep selector to one
// searchSeed per seed — the same Seeds, TotalCandidates and FMSteps — at
// δ 0…8 and at δ 20 (two lane groups), on reads cut from the text with
// and without substitutions and on random reads, over a text where
// lookups hit, a text where they miss, and one with no k-mer table.
func TestUniformLockstepVsSearchSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tt := range []struct {
		name string
		text []byte
	}{
		{"random-300", randText(rng, 300)},
		{"gapped-20k", gappedText(rng, 20_000)},
		{"repetitive-40k", repetitiveText(rng, 40_000)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			ix := fmindex.Build(tt.text, fmindex.Options{})
			early, missed := 0, 0
			for trial := 0; trial < 400; trial++ {
				errors := trial % 9
				if trial%50 == 49 {
					errors = 20
				}
				n := errors + 1 + rng.Intn(150)
				read := randText(rng, n)
				if trial%3 != 0 && n < len(tt.text) {
					start := rng.Intn(len(tt.text) - n + 1)
					copy(read, tt.text[start:])
					for k := rng.Intn(4); k > 0; k-- {
						read[rng.Intn(n)] = byte(rng.Intn(4))
					}
				}
				e, m := checkUniform(t, ix, read, errors)
				early, missed = early+e, missed+m
			}
			t.Logf("k-mer table depth %d: %d seeds emptied early, %d lookups missed", ix.Depth(), early, missed)
			if early == 0 || ix.Depth() > 0 && tt.name == "gapped-20k" && missed == 0 {
				t.Errorf("the early-empty or lookup-miss path was never taken")
			}
		})
	}
}

// TestUniformSelectAllocs pins Uniform.Select to its one allocation, the
// Seeds slice the Selection returns, whatever the number of lane groups.
func TestUniformSelectAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	text := repetitiveText(rng, 40_000)
	ix := fmindex.Build(text, fmindex.Options{})
	read := append([]byte(nil), text[1000:1100]...)
	for _, errors := range []int{0, 5, 20} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := (Uniform{}).Select(ix, read, Params{Errors: errors}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("δ=%d: Uniform.Select allocates %v times per call, want 1 (its Seeds)", errors, allocs)
		}
	}
}

var (
	uniformFuzzOnce sync.Once
	uniformFuzzIx   [2]*fmindex.Index
	uniformFuzzText [2][]byte
)

// FuzzUniformVsSearchSeed holds the lockstep Uniform selector to one
// searchSeed per seed on a read cut from a repetitive or a gapped 20 kb
// text (k-mer table depth 3; the gapped one's lookups of "GT" miss), with
// the input's substitutions, at δ 0…8.
func FuzzUniformVsSearchSeed(f *testing.F) {
	f.Add(false, uint16(1000), uint8(100), []byte{}, uint8(5))
	f.Add(true, uint16(7), uint8(30), []byte{3, 2, 4, 3}, uint8(2))
	f.Add(false, uint16(300), uint8(150), []byte{0, 0, 40, 3, 80, 1}, uint8(8))
	f.Add(true, uint16(5), uint8(8), []byte{}, uint8(7))
	f.Fuzz(func(t *testing.T, gapped bool, pos uint16, nRaw uint8, edits []byte, errRaw uint8) {
		uniformFuzzOnce.Do(func() {
			rng := rand.New(rand.NewSource(43))
			uniformFuzzText[0], uniformFuzzText[1] = repetitiveText(rng, 20_000), gappedText(rng, 20_000)
			for i, text := range uniformFuzzText {
				uniformFuzzIx[i] = fmindex.Build(text, fmindex.Options{})
			}
		})
		which := 0
		if gapped {
			which = 1
		}
		text, errors := uniformFuzzText[which], int(errRaw)%9
		n := errors + 1 + int(nRaw)%200
		start := int(pos) % (len(text) - n)
		read := append([]byte(nil), text[start:start+n]...)
		for i := 0; i+1 < len(edits); i += 2 {
			read[int(edits[i])%n] = edits[i+1] & 3
		}
		checkUniform(t, uniformFuzzIx[which], read, errors)
	})
}
