package bwamem

import (
	"math/rand"
	"testing"

	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/mapper"
)

func randText(rng *rand.Rand, n int) []byte {
	t := make([]byte, n)
	for i := range t {
		t[i] = byte(rng.Intn(4))
	}
	return t
}

func TestSinglePrimaryAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := randText(rng, 20_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	var reads [][]byte
	for i := 0; i < 30; i++ {
		pos := rng.Intn(len(ref) - 100)
		reads = append(reads, ref[pos:pos+100])
	}
	res, err := m.Map(reads, mapper.Options{MaxErrors: 4, MaxLocations: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range res.Mappings {
		if len(ms) > 1 {
			t.Errorf("read %d: %d locations, best-mapper must report one", i, len(ms))
		}
	}
}

func TestFindsExactAndMutatedReads(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := randText(rng, 30_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		pos := rng.Intn(len(ref) - 150)
		read := append([]byte(nil), ref[pos:pos+150]...)
		nErr := rng.Intn(4)
		for e := 0; e < nErr; e++ {
			p := rng.Intn(len(read))
			read[p] = (read[p] + 1 + byte(rng.Intn(3))) % 4
		}
		strand := mapper.Forward
		if rng.Intn(2) == 1 {
			strand = mapper.Reverse
			read = dna.ReverseComplement(read)
		}
		res, err := m.Map([][]byte{read}, mapper.Options{MaxErrors: 5, MaxLocations: 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, mp := range res.Mappings[0] {
			if mp.Strand == strand && mp.Pos >= int32(pos-5) && mp.Pos <= int32(pos+5) {
				hits++
			}
		}
	}
	// MEM seeding with >=19 bp exact stretches finds nearly all of these.
	if hits < trials*85/100 {
		t.Errorf("found %d/%d planted reads", hits, trials)
	}
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

func TestReportedDistanceSound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := randText(rng, 15_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	pos := 3000
	read := append([]byte(nil), ref[pos:pos+100]...)
	read[10] = (read[10] + 1) % 4
	read[60] = (read[60] + 2) % 4
	res, err := m.Map([][]byte{read}, mapper.Options{MaxErrors: 4, MaxLocations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mappings[0]) != 1 {
		t.Fatalf("mappings = %+v", res.Mappings[0])
	}
	mp := res.Mappings[0][0]
	if mp.Pos != int32(pos) || mp.Dist != 2 {
		t.Errorf("mapping = %+v want pos %d dist 2", mp, pos)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, cl.SystemOneHost()); err == nil {
		t.Error("empty reference accepted")
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
