package bwamem

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

func TestSeedsOfProducesMaximalMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := randText(rng, 10_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	pattern := ref[5000:5100]
	var cost cl.Cost
	seeds := m.seedsOf(nil, pattern, 6, &cost)
	if len(seeds) == 0 {
		t.Fatal("no seeds for an exact substring")
	}
	for _, s := range seeds {
		if s.end-s.start < minSeedLen {
			t.Errorf("seed shorter than minSeedLen: %+v", s)
		}
		if s.hi <= s.lo {
			t.Errorf("empty seed interval: %+v", s)
		}
		// The seed substring must actually occur at the located interval.
		if got := m.ix.Count(pattern[s.start:s.end]); got != s.hi-s.lo {
			t.Errorf("seed count %d but interval size %d", got, s.hi-s.lo)
		}
	}
	if cost.FMSteps == 0 {
		t.Error("no FM steps charged")
	}
}

// TestGeneratorAllocFree is the runtime half of the hotalloc contract for
// MEM seeding: after warm-up one work item's candidate generation (both
// strands) allocates nothing. The extension that follows calls into
// internal/align, whose per-call buffers are outside this check.
func TestGeneratorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := randText(rng, 20_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	read := ref[4000:4100]
	st := &mapper.State{Scratch: new(scratch)}
	var cost cl.Cost
	item := func() { st.Generate(m.generate, read, &cost) }
	item()
	if len(st.Cands) == 0 {
		t.Fatal("generator found no candidates; the check is vacuous")
	}
	if n := testing.AllocsPerRun(50, item); n != 0 {
		t.Errorf("generator allocates %v times per work item", n)
	}
}
