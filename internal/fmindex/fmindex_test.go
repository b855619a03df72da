package fmindex

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dna"
)

// naiveCount counts occurrences of p in text by scanning.
func naiveCount(text, p []byte) int {
	if len(p) == 0 || len(p) > len(text) {
		return 0
	}
	n := 0
	for i := 0; i+len(p) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(p)], p) {
			n++
		}
	}
	return n
}

// naivePositions returns all match positions of p in text.
func naivePositions(text, p []byte) []int32 {
	var out []int32
	for i := 0; i+len(p) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(p)], p) {
			out = append(out, int32(i))
		}
	}
	return out
}

func randomText(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(rng.Intn(4))
	}
	return t
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestCountKnown(t *testing.T) {
	text := dna.MustEncode("ACGTACGTACGT")
	ix := Build(text, Options{})
	cases := []struct {
		p    string
		want int
	}{
		{"ACGT", 3}, {"CGTA", 2}, {"T", 3}, {"ACGTACGTACGT", 1},
		{"TTTT", 0}, {"GACG", 0},
	}
	for _, tc := range cases {
		if got := ix.Count(dna.MustEncode(tc.p)); got != tc.want {
			t.Errorf("Count(%s) = %d want %d", tc.p, got, tc.want)
		}
	}
}

func TestCountVsNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		text := randomText(rng, 200+rng.Intn(800))
		ix := Build(text, Options{})
		for q := 0; q < 40; q++ {
			plen := 1 + rng.Intn(12)
			var p []byte
			if rng.Intn(2) == 0 && len(text) > plen {
				start := rng.Intn(len(text) - plen)
				p = text[start : start+plen]
			} else {
				p = randomText(rng, plen)
			}
			if got, want := ix.Count(p), naiveCount(text, p); got != want {
				t.Fatalf("trial %d: Count(%v) = %d want %d", trial, p, got, want)
			}
		}
	}
}

func TestLocateVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, rate := range []int{0, 4, 16, 32} {
		text := randomText(rng, 600)
		ix := Build(text, Options{SASampleRate: rate})
		for q := 0; q < 30; q++ {
			plen := 2 + rng.Intn(8)
			start := rng.Intn(len(text) - plen)
			p := text[start : start+plen]
			lo, hi := ix.Range(p)
			got := ix.Locate(lo, hi, 0, nil)
			want := naivePositions(text, p)
			if len(got) != len(want) {
				t.Fatalf("rate %d: Locate count %d want %d", rate, len(got), len(want))
			}
			sortInt32(got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rate %d: positions %v want %v", rate, got, want)
				}
			}
		}
	}
}

func TestLocateLimit(t *testing.T) {
	text := bytes.Repeat(dna.MustEncode("ACG"), 50)
	ix := Build(text, Options{})
	lo, hi := ix.Range(dna.MustEncode("ACG"))
	if hi-lo != 50 {
		t.Fatalf("Range(ACG) size = %d want 50", hi-lo)
	}
	got := ix.Locate(lo, hi, 7, nil)
	if len(got) != 7 {
		t.Fatalf("Locate limit 7 returned %d", len(got))
	}
}

func TestExtendLeftIncremental(t *testing.T) {
	// Extending left character by character must agree with Range on
	// every suffix of the pattern.
	rng := rand.New(rand.NewSource(3))
	text := randomText(rng, 500)
	ix := Build(text, Options{})
	p := text[100:120]
	lo, hi := ix.Start()
	for i := len(p) - 1; i >= 0; i-- {
		lo, hi = ix.ExtendLeft(p[i], lo, hi)
		wlo, whi := ix.Range(p[i:])
		if lo != wlo || hi != whi {
			t.Fatalf("ExtendLeft interval (%d,%d) != Range (%d,%d) at suffix %d",
				lo, hi, wlo, whi, i)
		}
	}
}

func TestExtendLeftEmptyStaysEmpty(t *testing.T) {
	text := dna.MustEncode("AAAA")
	ix := Build(text, Options{})
	lo, hi := ix.Range(dna.MustEncode("C"))
	if lo < hi {
		t.Fatalf("Range(C) = (%d,%d) want empty", lo, hi)
	}
	lo2, hi2 := ix.ExtendLeft(dna.A, lo, hi)
	if lo2 < hi2 {
		t.Errorf("extending an empty interval produced (%d,%d)", lo2, hi2)
	}
}

func TestCountProperty(t *testing.T) {
	f := func(rawText, rawP []byte) bool {
		if len(rawText) == 0 {
			return true
		}
		text := make([]byte, len(rawText))
		for i, b := range rawText {
			text[i] = b & 3
		}
		plen := 1 + len(rawP)%8
		if plen > len(text) {
			plen = len(text)
		}
		p := make([]byte, plen)
		for i := range p {
			if i < len(rawP) {
				p[i] = rawP[i] & 3
			}
		}
		ix := Build(text, Options{})
		return ix.Count(p) == naiveCount(text, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestSampledMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	text := randomText(rng, 2000)
	full := Build(text, Options{})
	sampled := Build(text, Options{SASampleRate: 8})
	for q := 0; q < 50; q++ {
		plen := 3 + rng.Intn(10)
		start := rng.Intn(len(text) - plen)
		p := text[start : start+plen]
		lo, hi := full.Range(p)
		slo, shi := sampled.Range(p)
		if lo != slo || hi != shi {
			t.Fatalf("range mismatch full (%d,%d) sampled (%d,%d)", lo, hi, slo, shi)
		}
		a := full.Locate(lo, hi, 0, nil)
		b := sampled.Locate(slo, shi, 0, nil)
		sortInt32(a)
		sortInt32(b)
		if len(a) != len(b) {
			t.Fatalf("locate count mismatch %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("locate mismatch %v vs %v", a, b)
			}
		}
	}
	if sampled.SizeBytes() >= full.SizeBytes() {
		t.Errorf("sampled index (%d B) not smaller than full (%d B)",
			sampled.SizeBytes(), full.SizeBytes())
	}
	if full.LocateSteps() != 0 || sampled.LocateSteps() <= 0 {
		t.Errorf("LocateSteps: full %v sampled %v", full.LocateSteps(), sampled.LocateSteps())
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rate := range []int{0, 8} {
		text := randomText(rng, 700)
		ix := Build(text, Options{SASampleRate: rate})
		var buf bytes.Buffer
		n, err := ix.WriteTo(&buf)
		if err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("ReadFrom: %v", err)
		}
		for q := 0; q < 20; q++ {
			plen := 2 + rng.Intn(8)
			start := rng.Intn(len(text) - plen)
			p := text[start : start+plen]
			if got.Count(p) != ix.Count(p) {
				t.Fatalf("rate %d: count differs after round trip", rate)
			}
			lo, hi := got.Range(p)
			a := got.Locate(lo, hi, 0, nil)
			b := ix.Locate(lo, hi, 0, nil)
			sortInt32(a)
			sortInt32(b)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("rate %d: locate differs after round trip", rate)
				}
			}
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Error("ReadFrom accepted garbage")
	}
	if _, err := ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("ReadFrom accepted empty input")
	}
}

func TestReadFromRejectsTruncated(t *testing.T) {
	text := randomText(rand.New(rand.NewSource(6)), 300)
	ix := Build(text, Options{})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{10, len(data) / 2, len(data) - 3} {
		if _, err := ReadFrom(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("ReadFrom accepted truncation at %d", cut)
		}
	}
}

func TestTextRetained(t *testing.T) {
	text := dna.MustEncode("ACGTGTCA")
	ix := Build(text, Options{})
	if got := dna.Decode(ix.Text().Unpack()); got != "ACGTGTCA" {
		t.Errorf("Text() = %q want ACGTGTCA", got)
	}
	if ix.Len() != 8 {
		t.Errorf("Len = %d want 8", ix.Len())
	}
}

func BenchmarkLocateSampled32(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	text := randomText(rng, 1_000_000)
	ix := Build(text, Options{SASampleRate: 32})
	p := text[500000:500012]
	lo, hi := ix.Range(p)
	out := make([]int32, 0, hi-lo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ix.Locate(lo, hi, 0, out[:0])
	}
}
