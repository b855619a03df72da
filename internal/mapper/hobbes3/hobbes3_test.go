package hobbes3

import (
	"math/rand"
	"testing"

	"repro/internal/cl"
	"repro/internal/mapper"
)

func randText(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(rng.Intn(4))
	}
	return t
}

func TestSelectSignaturesMinimisesFrequency(t *testing.T) {
	// freqs crafted so the optimum is unambiguous.
	freqs := []int32{9, 1, 9, 9, 9, 2, 9, 9, 9, 3, 9, 9}
	pos, cells := selectSignatures(&scratch{}, freqs, 3, 4)
	if cells <= 0 {
		t.Fatal("no DP cells accounted")
	}
	want := []int{1, 5, 9}
	if len(pos) != 3 {
		t.Fatalf("positions = %v", pos)
	}
	for i := range want {
		if pos[i] != want[i] {
			t.Fatalf("positions = %v want %v", pos, want)
		}
	}
}

func TestSelectSignaturesRespectsSpacing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 20 + rng.Intn(60)
		q := 2 + rng.Intn(6)
		k := 1 + rng.Intn(4)
		if k*q > n {
			continue
		}
		freqs := make([]int32, n-q+1)
		for i := range freqs {
			freqs[i] = int32(rng.Intn(100))
		}
		pos, _ := selectSignatures(&scratch{}, freqs, k, q)
		if len(pos) != k {
			t.Fatalf("trial %d: %d positions want %d", trial, len(pos), k)
		}
		for i := 1; i < len(pos); i++ {
			if pos[i] < pos[i-1]+q {
				t.Fatalf("trial %d: overlap %v (q=%d)", trial, pos, q)
			}
		}
		// Compare against brute force on small instances.
		if len(freqs) <= 18 && k <= 3 {
			best := bruteSignatures(freqs, k, q)
			var got int64
			for _, p := range pos {
				got += int64(freqs[p])
			}
			if got != best {
				t.Fatalf("trial %d: DP cost %d brute %d (freqs %v k %d q %d)",
					trial, got, best, freqs, k, q)
			}
		}
	}
}

func bruteSignatures(freqs []int32, k, q int) int64 {
	best := int64(1) << 62
	var rec func(start int, left int, sum int64)
	rec = func(start, left int, sum int64) {
		if left == 0 {
			if sum < best {
				best = sum
			}
			return
		}
		// Signature at i needs q*(left-1) more positions to its right.
		for i := start; i+q*(left-1) <= len(freqs)-1; i++ {
			rec(i+q, left-1, sum+int64(freqs[i]))
		}
	}
	rec(0, k, 0)
	return best
}

// TestGeneratorAllocFree is the runtime half of the hotalloc contract
// for the signature filter: after warm-up one work item's candidate
// generation (both strands, signature DP included) allocates nothing.
func TestGeneratorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := randText(rng, 20_000)
	m, err := New(ref, cl.SystemOneHost(), 9)
	if err != nil {
		t.Fatal(err)
	}
	read := ref[4000:4100]
	q := m.chooseQ(len(read), 4)
	ix, err := m.grams.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	gen := generator{ix: ix, q: q, k: 5}.generate
	st := &mapper.State{Scratch: new(scratch)}
	var cost cl.Cost
	item := func() { st.Generate(gen, read, &cost) }
	item()
	if len(st.Cands) == 0 {
		t.Fatal("generator found no candidates; the check is vacuous")
	}
	if n := testing.AllocsPerRun(50, item); n != 0 {
		t.Errorf("generator allocates %v times per work item", n)
	}
}
