package qgram

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dna"
)

func naivePositions(text, gram []byte) []int32 {
	var out []int32
	for i := 0; i+len(gram) <= len(text); i++ {
		if bytes.Equal(text[i:i+len(gram)], gram) {
			out = append(out, int32(i))
		}
	}
	return out
}

func TestHash(t *testing.T) {
	if got := Hash(dna.MustEncode("AAAA")); got != 0 {
		t.Errorf("Hash(AAAA) = %d want 0", got)
	}
	if got := Hash(dna.MustEncode("T")); got != 3 {
		t.Errorf("Hash(T) = %d want 3", got)
	}
	if got := Hash(dna.MustEncode("CA")); got != 4 {
		t.Errorf("Hash(CA) = %d want 4", got)
	}
}

func TestBuildRejectsBadQ(t *testing.T) {
	text := dna.MustEncode("ACGT")
	for _, q := range []int{0, -1, MaxQ + 1} {
		if _, err := Build(text, q); err == nil {
			t.Errorf("Build(q=%d) accepted", q)
		}
	}
}

func TestShortText(t *testing.T) {
	ix, err := Build(dna.MustEncode("AC"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Positions(Hash(dna.MustEncode("ACGT"))); len(got) != 0 {
		t.Errorf("short text produced positions %v", got)
	}
}

func TestPositionsVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(500)
		text := make([]byte, n)
		for i := range text {
			text[i] = byte(rng.Intn(4))
		}
		q := 1 + rng.Intn(6)
		ix, err := Build(text, q)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 30; probe++ {
			gram := make([]byte, q)
			for i := range gram {
				gram[i] = byte(rng.Intn(4))
			}
			got := ix.Positions(Hash(gram))
			want := naivePositions(text, gram)
			if len(got) != len(want) {
				t.Fatalf("q=%d gram %v: %d positions want %d", q, gram, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%d gram %v: positions %v want %v", q, gram, got, want)
				}
			}
			if ix.Count(Hash(gram)) != len(want) {
				t.Fatalf("Count mismatch for gram %v", gram)
			}
		}
	}
}

func TestPositionsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	text := make([]byte, 2000)
	for i := range text {
		text[i] = byte(rng.Intn(2)) // low entropy: big buckets
	}
	ix, err := Build(text, 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for h := uint32(0); h < 1<<10; h++ {
		ps := ix.Positions(h)
		total += len(ps)
		for i := 1; i < len(ps); i++ {
			if ps[i] <= ps[i-1] {
				t.Fatalf("bucket %d not ascending: %v", h, ps)
			}
		}
	}
	if total != len(text)-5+1 {
		t.Errorf("total positions %d want %d", total, len(text)-5+1)
	}
}

func TestSizeBytes(t *testing.T) {
	ix, err := Build(dna.MustEncode("ACGTACGTAC"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if ix.SizeBytes() <= 0 || ix.q != 3 || ix.Len() != 10 {
		t.Errorf("metadata wrong: size %d q %d len %d", ix.SizeBytes(), ix.q, ix.Len())
	}
}

func BenchmarkBuildQ11(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	text := make([]byte, 1_000_000)
	for i := range text {
		text[i] = byte(rng.Intn(4))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(text, 11); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(text)))
}

func TestCacheClampsAndBuildsOnce(t *testing.T) {
	text := []byte{0, 1, 2, 3, 0, 1, 2, 3, 1, 1}
	if got := NewCache(text, 0).MaxQ(); got != 11 {
		t.Errorf("default maxQ = %d, want 11", got)
	}
	c := NewCache(text, 99)
	if c.MaxQ() != MaxQ {
		t.Errorf("maxQ %d not clamped to %d", c.MaxQ(), MaxQ)
	}
	a, err := c.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := c.Get(3); a != b {
		t.Error("second Get rebuilt the index")
	}
	if a.q != 3 || a.Len() != len(text) {
		t.Errorf("Get(3) built q=%d over %d bases", a.q, a.Len())
	}
	if _, err := c.Get(MaxQ + 1); err == nil {
		t.Error("out-of-range gram length accepted")
	}
}

// TestCacheConcurrentGet is the cache's lock discipline under -race:
// concurrent mappers ask for the same and for different gram lengths,
// and every caller of one length gets the one index built for it.
func TestCacheConcurrentGet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	text := make([]byte, 4000)
	for i := range text {
		text[i] = byte(rng.Intn(4))
	}
	c := NewCache(text, 0)
	qs := []int{3, 4, 5}
	const workers = 8
	got := make([][]*Index, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]*Index, len(qs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range qs {
				// Each worker starts at a different length, so the same
				// and different lengths are asked for at once.
				k := (i + w) % len(qs)
				ix, err := c.Get(qs[k])
				if err != nil {
					t.Error(err)
					return
				}
				got[w][k] = ix
			}
		}(w)
	}
	wg.Wait()
	for k, q := range qs {
		for w := range got {
			if got[w][k] == nil || got[w][k] != got[0][k] || got[w][k].q != q {
				t.Fatalf("Get(%d): worker %d got a different index than worker 0", q, w)
			}
		}
	}
}
