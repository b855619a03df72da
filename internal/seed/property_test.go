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
		_, opt, _, err := eagerSelect(ix, read, errors, smin)
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

// TestCountQuadrangle is the fact divider cascading rests on: writing
// F(x, y) for the count of read[x:y], F(a,c) + F(b,d) ≤ F(a,d) + F(b,c)
// for every a ≤ b ≤ c ≤ d. The occurrences of read[a:c] and of read[b:d]
// both embed in those of read[b:c], and read[a:d] occurs exactly where
// both do, so |A ∩ B| ≥ |A| + |B| − |S|. Counts come from searchSeed, and
// every count the shared walks return from the ends d in turn, whatever
// their table lookup, must equal them. Texts are random, periodic and repetitive,
// sized for k-mer table depths 0 to 5; reads are up to 40 bases, with
// and without substitutions.
func TestCountQuadrangle(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	texts := []struct {
		name  string
		text  []byte
		depth int
	}{
		{"random-400", randText(rng, 400), 0},
		{"periodic-1k", periodicText(rng, 1_000, 5), 1},
		{"repetitive-3k", repetitiveText(rng, 3_000), 2},
		{"random-10k", randText(rng, 10_000), 3},
		{"periodic-40k", periodicText(rng, 40_000, 7), 4},
		{"repetitive-140k", repetitiveText(rng, 140_000), 5},
	}
	for _, tt := range texts {
		t.Run(tt.name, func(t *testing.T) {
			ix := fmindex.Build(tt.text, fmindex.Options{})
			if ix.Depth() != tt.depth {
				t.Fatalf("k-mer table depth %d, want %d", ix.Depth(), tt.depth)
			}
			for trial := 0; trial < 20; trial++ {
				n := 1 + rng.Intn(40)
				start := rng.Intn(len(tt.text) - n + 1)
				read := append([]byte(nil), tt.text[start:start+n]...)
				for k := trial % 2 * (1 + rng.Intn(3)); k > 0; k-- {
					read[rng.Intn(n)] = byte(rng.Intn(4))
				}
				f := make([][]int, n+1) // f[x][y] = F(x, y), x ≤ y
				for x := range f {
					f[x] = make([]int, n+1)
					for y := x; y <= n; y++ {
						lo, hi, _ := searchSeed(ix, read, x, y)
						f[x][y] = max(hi-lo, 0)
					}
				}
				var w walker
				for tbl := 0; tbl <= min(ix.Depth(), n); tbl++ {
					w.begin(ix, read, tbl)
					for d := max(tbl, 1); d <= n; d++ {
						w.reset(d)
						for l := max(tbl, 1); l <= d; l++ {
							if got := int(w.count(l)); got != f[d-l][d] {
								t.Fatalf("read %v: walker (table %d) count of [%d:%d] = %d, search %d", read, tbl, d-l, d, got, f[d-l][d])
							}
						}
					}
				}
				for a := 0; a <= n; a++ {
					for b := a; b <= n; b++ {
						for c := b; c <= n; c++ {
							for d := c; d <= n; d++ {
								if f[a][c]+f[b][d] > f[a][d]+f[b][c] {
									t.Fatalf("read %v: F(%d,%d)+F(%d,%d) = %d+%d > F(%d,%d)+F(%d,%d) = %d+%d",
										read, a, c, b, d, f[a][c], f[b][d], a, d, b, c, f[a][d], f[b][c])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestDividerCascades is the cascade itself: on the eager oracle, whose
// bt keeps the smallest argmin u of every opt[j][v], the divider of every
// row j < δ+1 never decreases in v — so dpSelect may evaluate bt[j][v-1]
// first and scan only the dividers above it. It follows from the
// quadrangle inequality: were the smallest argmin u2 at v2 below the
// smallest argmin u1 at v1 < v2, u2 would do at least as well as u1 at v1.
// Reads come from a repetitive and a periodic text (long runs of ties),
// with and without substitutions.
func TestDividerCascades(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	repetitive := propIndex()
	periodic := periodicText(rng, 6_000, 3)
	for _, tt := range []struct {
		name string
		ix   *fmindex.Index
		text []byte
	}{
		{"repetitive-20k", repetitive, sharedText},
		{"periodic-6k", fmindex.Build(periodic, fmindex.Options{}), periodic},
	} {
		t.Run(tt.name, func(t *testing.T) {
			for trial := 0; trial < 300; trial++ {
				n := 20 + rng.Intn(131)
				start := rng.Intn(len(tt.text) - n + 1)
				read := append([]byte(nil), tt.text[start:start+n]...)
				for k := rng.Intn(4); k > 0; k-- {
					read[rng.Intn(n)] = byte(rng.Intn(4))
				}
				errors, smin := 1+rng.Intn(7), 1+rng.Intn(16)
				if (errors+1)*smin > n {
					continue
				}
				_, _, bt, err := eagerSelect(tt.ix, read, errors, smin)
				if err != nil {
					t.Fatal(err)
				}
				w := n - (errors+1)*smin
				for j := 2; j <= errors; j++ { // row δ+1 holds only v = W
					row := bt[(j-2)*(w+1) : (j-1)*(w+1)]
					for v := 1; v <= w; v++ {
						if row[v] < row[v-1] {
							t.Fatalf("n=%d δ=%d smin=%d: bt[%d][%d]=%d < bt[%d][%d]=%d",
								n, errors, smin, j, v, row[v], j, v-1, row[v-1])
						}
					}
				}
			}
		})
	}
}

// TestDPPeakMemVsSelection pins the two memory figures of the REPUTE
// selector against each other: DPPeakMem is the paper's two-live-row
// kernel, the figure the device model charges, and Selection.PeakMemBytes
// is dpSelect's own δ+1 opt rows, so for δ ≥ 1 the second exceeds the
// first, less its 256 fixed bytes, by (δ−1)·(W+1)·4.
func TestDPPeakMemVsSelection(t *testing.T) {
	ix := propIndex()
	for _, tc := range []struct{ n, errors, smin, kernel int }{
		{100, 1, 14, 1330},
		{100, 2, 14, 1252},
		{100, 5, 14, 682},
		{150, 7, 12, 1730},
		{150, 4, 20, 1352},
		{64, 3, 16, 334},
	} {
		w := tc.n - (tc.errors+1)*tc.smin
		kernel := DPPeakMem(tc.n, tc.errors, tc.smin, REPUTE{})
		if kernel != tc.kernel {
			t.Errorf("n=%d δ=%d smin=%d: DPPeakMem %d, want %d", tc.n, tc.errors, tc.smin, kernel, tc.kernel)
		}
		sel, err := (REPUTE{}).Select(ix, sharedText[:tc.n], Params{Errors: tc.errors, MinSeedLen: tc.smin})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sel.PeakMemBytes-(kernel-256), (tc.errors-1)*(w+1)*4; got != want {
			t.Errorf("n=%d δ=%d smin=%d: PeakMemBytes %d − (DPPeakMem %d − 256) = %d, want (δ−1)·(W+1)·4 = %d",
				tc.n, tc.errors, tc.smin, sel.PeakMemBytes, kernel, got, want)
		}
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
