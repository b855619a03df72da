package fmindex

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// checkLookup compares Lookup with Range — the ExtendLeft chain from
// Start() — for every pattern of length 0..Depth().
func checkLookup(t *testing.T, ix *Index) {
	t.Helper()
	p := make([]byte, ix.Depth())
	for k := 0; k <= ix.Depth(); k++ {
		for code := 0; code < 1<<(2*k); code++ {
			for i := range k {
				p[i] = byte(code >> (2 * (k - 1 - i)) & 3)
			}
			lo, hi := ix.Lookup(p[:k])
			wlo, whi := ix.Range(p[:k])
			if lo != wlo || hi != whi {
				t.Fatalf("Lookup(%v) = [%d, %d), Range = [%d, %d)", p[:k], lo, hi, wlo, whi)
			}
		}
	}
}

// TestLookupMatchesRange: the table holds the step-by-step interval of
// every pattern it covers, on a built index, on its WriteTo → ReadFrom
// round trip (which fills it again from the loaded rank), and on a
// sampled-SA index. The text has no CCCC, so empty entries — and the
// 5-mers they are carried into — are covered too.
func TestLookupMatchesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	text := randomText(rng, 140_000)
	cccc := []byte{1, 1, 1, 1}
	for i := 0; i+4 <= len(text); i++ { // break every CCCC
		if bytes.Equal(text[i:i+4], cccc) {
			text[i+3] = 0
		}
	}
	built := Build(text, Options{})
	if built.Depth() != 5 {
		t.Fatalf("Depth() = %d for n=%d, want 5", built.Depth(), len(text))
	}
	if lo, hi := built.Lookup(cccc); lo < hi {
		t.Fatal("CCCC occurs; the empty entries go untested")
	}
	var buf bytes.Buffer
	if _, err := built.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ix   *Index
	}{
		{"built", built},
		{"loaded", loaded},
		{"sampled", Build(text, Options{SASampleRate: 16})},
	} {
		t.Run(tc.name, func(t *testing.T) { checkLookup(t, tc.ix) })
	}
}

// TestDepthTable pins the depth rule: it depends on n alone.
func TestDepthTable(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {4, 0}, {511, 0}, {512, 1}, {2047, 1}, {2048, 2},
		{131_071, 4}, {131_072, 5},
		{4 << 20, 7}, {4<<20 + 2*256, 7}, {8<<20 - 1, 7}, {8 << 20, 8},
		{16 << 20, 8}, {1 << 30, 8}, {math.MaxInt32, 0},
	} {
		if got := depthFor(tc.n); got != tc.want {
			t.Errorf("depthFor(%d) = %d want %d", tc.n, got, tc.want)
		}
	}
	if got := Build(randomText(rand.New(rand.NewSource(1)), 600), Options{}).Depth(); got != 1 {
		t.Errorf("Depth() of a 600-base index = %d want 1", got)
	}
}

func TestLookupDoesNotAllocate(t *testing.T) {
	text := randomText(rand.New(rand.NewSource(16)), 20_000)
	ix := Build(text, Options{})
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i+ix.Depth() <= 64; i++ {
			sinkLo, sinkHi = ix.Lookup(text[i : i+ix.Depth()])
		}
	})
	if allocs != 0 {
		t.Errorf("Lookup allocates %.0f times per run", allocs)
	}
}
