package seed

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fmindex"
)

// eagerSelect is dpSelect before divider cascading, the divider cut, the
// pull walk and the k-mer table: every divider u = 0..v is scanned left to
// right keeping the first strict minimum, every end's walk runs eagerly
// from the full interval to min(Smin+W, e) bases, and every final seed is
// searched base by base. It is the oracle the production selector must match seed for
// seed while charging no more FM steps and DP cells. It also returns its
// opt rows (j = 1..δ+1 at stride W+1) and its smallest-argmin divider rows
// bt (j = 2..δ+1, same stride) for the monotonicity properties.
func eagerSelect(ix *fmindex.Index, read []byte, errors, smin int) (Selection, []int32, []uint16, error) {
	n := len(read)
	if err := (Params{Errors: errors, MinSeedLen: smin}).validate(n); err != nil {
		return Selection{}, nil, nil, err
	}
	parts := errors + 1
	if n < parts*smin {
		return Selection{}, nil, nil, fmt.Errorf(
			"seed: read length %d < %d seeds × Smin %d", n, parts, smin)
	}
	steps := 0
	search := func(start, end int) Seed {
		lo, hi := ix.Start()
		for i := end - 1; i >= start && lo < hi; i-- {
			lo, hi = ix.ExtendLeft(read[i], lo, hi)
			steps++
		}
		return Seed{Start: start, End: end, Lo: lo, Hi: hi}
	}
	if errors == 0 {
		s := search(0, n)
		return Selection{Seeds: []Seed{s}, TotalCandidates: s.Count(), FMSteps: steps, PeakMemBytes: 16}, nil, nil, nil
	}

	w := n - parts*smin
	const inf = int32(1<<31 - 1)
	opt := make([]int32, parts*(w+1))
	for i := range opt {
		opt[i] = inf
	}
	bt := make([]uint16, (parts-1)*(w+1))
	counts := make([]int32, smin+w)
	row := func(j int) []int32 { return opt[(j-1)*(w+1) : j*(w+1)] }

	cells := 0
	for e := smin; e <= n; e++ {
		jHi := min(e/smin, parts)
		jLo := max((e-w+smin-1)/smin, 1)
		if jHi == parts && e != n {
			jHi = parts - 1
		}
		if jLo > jHi {
			continue
		}
		maxNeed := min(smin+w, e)
		lo, hi := ix.Start()
		for k := 0; k < maxNeed; k++ {
			if lo < hi {
				lo, hi = ix.ExtendLeft(read[e-1-k], lo, hi)
				steps++
			}
			counts[k] = int32(max(hi-lo, 0))
		}
		for j := jLo; j <= jHi; j++ {
			v := e - j*smin
			if j == 1 {
				row(1)[v] = counts[e-1]
				cells++
				continue
			}
			prev := row(j - 1)
			best, bestU := inf, 0
			for u := 0; u <= v; u++ {
				if prev[u] == inf {
					continue
				}
				if c := prev[u] + counts[smin+v-u-1]; c < best {
					best, bestU = c, u
				}
				cells++
			}
			row(j)[v] = best
			bt[(j-2)*(w+1)+v] = uint16(bestU)
		}
	}

	ends := make([]int, parts+1)
	ends[parts] = n
	v := w
	for j := parts; j >= 2; j-- {
		v = int(bt[(j-2)*(w+1)+v])
		ends[j-1] = (j-1)*smin + v
	}
	seeds := make([]Seed, parts)
	for i := range seeds {
		seeds[i] = search(ends[i], ends[i+1])
	}
	return Selection{
		Seeds:           seeds,
		TotalCandidates: totalOf(seeds),
		FMSteps:         steps,
		DPCells:         cells,
		PeakMemBytes:    len(opt)*4 + len(bt)*2 + len(counts)*4,
	}, opt, bt, nil
}

// checkAgainstOracle selects read with REPUTE (at smin) and OSS and holds
// each to the eager oracle: the same seeds and total, or the same error,
// and no more FM steps or DP cells.
func checkAgainstOracle(t *testing.T, ix *fmindex.Index, read []byte, errors, smin int) {
	t.Helper()
	for _, tc := range []struct {
		sel  Selector
		smin int
	}{{REPUTE{}, smin}, {OSS{}, 1}} {
		got, gerr := tc.sel.Select(ix, read, Params{Errors: errors, MinSeedLen: tc.smin})
		want, _, _, werr := eagerSelect(ix, read, errors, tc.smin)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%s n=%d δ=%d smin=%d: error %v, oracle %v", tc.sel.Name(), len(read), errors, tc.smin, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		if !reflect.DeepEqual(got.Seeds, want.Seeds) || got.TotalCandidates != want.TotalCandidates {
			t.Fatalf("%s n=%d δ=%d smin=%d: seeds %v total %d, oracle %v total %d",
				tc.sel.Name(), len(read), errors, tc.smin, got.Seeds, got.TotalCandidates, want.Seeds, want.TotalCandidates)
		}
		if got.FMSteps > want.FMSteps || got.DPCells > want.DPCells || got.PeakMemBytes != want.PeakMemBytes {
			t.Fatalf("%s n=%d δ=%d smin=%d: steps/cells/mem %d/%d/%d, oracle %d/%d/%d",
				tc.sel.Name(), len(read), errors, tc.smin,
				got.FMSteps, got.DPCells, got.PeakMemBytes, want.FMSteps, want.DPCells, want.PeakMemBytes)
		}
	}
}

// periodicText repeats a short period with rare substitutions: runs of
// equal counts, so the divider scan meets long ties.
func periodicText(rng *rand.Rand, n, period int) []byte {
	motif := randText(rng, period)
	out := make([]byte, n)
	for i := range out {
		out[i] = motif[i%period]
		if rng.Intn(50) == 0 {
			out[i] = byte(rng.Intn(4))
		}
	}
	return out
}

// TestSelectVsOracle holds REPUTE and OSS to the eager oracle on random,
// repetitive and periodic texts — k-mer table depths 0 to 5 — at read
// lengths 20–150, δ 1–7 and Smin 1–16, on reads cut from the text with
// and without substitutions.
func TestSelectVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	texts := []struct {
		name string
		text []byte
	}{
		{"random-400", randText(rng, 400)},
		{"periodic-6k", periodicText(rng, 6_000, 3)},
		{"random-20k", randText(rng, 20_000)},
		{"repetitive-140k", repetitiveText(rng, 140_000)},
	}
	for _, tt := range texts {
		t.Run(tt.name, func(t *testing.T) {
			ix := fmindex.Build(tt.text, fmindex.Options{})
			t.Logf("k-mer table depth %d", ix.Depth())
			for trial := 0; trial < 300; trial++ {
				n := 20 + rng.Intn(min(131, len(tt.text)-20))
				start := rng.Intn(len(tt.text) - n + 1)
				read := append([]byte(nil), tt.text[start:start+n]...)
				for k := rng.Intn(4); k > 0; k-- {
					read[rng.Intn(n)] = byte(rng.Intn(4))
				}
				checkAgainstOracle(t, ix, read, 1+rng.Intn(7), 1+rng.Intn(16))
			}
		})
	}
}

// TestSelectConcurrent: kernel workers select on one shared index, whose
// k-mer table is read-only after build. Four goroutines selecting the same
// reads must agree with a serial pass (and stay clean under -race).
func TestSelectConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	text := repetitiveText(rng, 40_000)
	ix := fmindex.Build(text, fmindex.Options{})
	reads := make([][]byte, 40)
	for i := range reads {
		start := rng.Intn(len(text) - 100)
		reads[i] = text[start : start+100]
	}
	p := Params{Errors: 5, MinSeedLen: 9}
	want := make([]Selection, len(reads))
	for i, r := range reads {
		var err error
		if want[i], err = (REPUTE{}).Select(ix, r, p); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, r := range reads {
				got, err := (REPUTE{}).Select(ix, r, p)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("read %d: concurrent selection %+v (%v), serial %+v", i, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

var (
	fuzzOnce sync.Once
	fuzzIx   *fmindex.Index
	fuzzText []byte
)

// FuzzSelectVsOracle cuts a read out of a repetitive 40 kb text (k-mer
// table depth 4), applies the input's substitutions and holds REPUTE and
// OSS to the eager oracle at the input's δ and Smin.
func FuzzSelectVsOracle(f *testing.F) {
	f.Add(uint16(1000), uint8(100), []byte{}, uint8(5), uint8(9))
	f.Add(uint16(7), uint8(30), []byte{3, 1, 9, 2}, uint8(2), uint8(10))
	f.Add(uint16(300), uint8(150), []byte{0, 0, 40, 3, 80, 1}, uint8(7), uint8(1))
	f.Add(uint16(5), uint8(20), []byte{}, uint8(0), uint8(16))
	f.Fuzz(func(t *testing.T, pos uint16, nRaw uint8, edits []byte, errRaw, sminRaw uint8) {
		fuzzOnce.Do(func() {
			fuzzText = repetitiveText(rand.New(rand.NewSource(40)), 40_000)
			fuzzIx = fmindex.Build(fuzzText, fmindex.Options{})
		})
		n := 1 + int(nRaw)%200
		start := int(pos) % (len(fuzzText) - n)
		read := append([]byte(nil), fuzzText[start:start+n]...)
		for i := 0; i+1 < len(edits); i += 2 {
			read[int(edits[i])%n] = edits[i+1] & 3
		}
		checkAgainstOracle(t, fuzzIx, read, int(errRaw)%8, 1+int(sminRaw)%16)
	})
}
