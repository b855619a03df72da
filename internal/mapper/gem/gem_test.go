package gem

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

func TestRegionsPartitionTheRead(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := randText(rng, 20_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	pattern := ref[8000:8100]
	var cost cl.Cost
	regs := m.regionsOf(nil, pattern, &cost)
	if len(regs) == 0 {
		t.Fatal("no regions")
	}
	// Regions are produced right-to-left and must tile [0, len(pattern)).
	end := len(pattern)
	for _, r := range regs {
		if r.end != end {
			t.Fatalf("region %+v does not abut previous end %d", r, end)
		}
		if r.start >= r.end {
			t.Fatalf("empty region %+v", r)
		}
		end = r.start
	}
	if end != 0 {
		t.Fatalf("regions do not reach the read start: %d", end)
	}
	if cost.FMSteps == 0 {
		t.Error("no FM steps charged")
	}
}

func TestAdaptiveRegionsShorterInUniqueSequence(t *testing.T) {
	// In random (unique) sequence, intervals shrink fast, so regions cut
	// early; in a high-copy repeat they must run longer.
	rng := rand.New(rand.NewSource(2))
	motif := randText(rng, 400)
	var ref []byte
	for i := 0; i < 50; i++ {
		ref = append(ref, motif...)
	}
	ref = append(ref, randText(rng, 20_000)...)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	var cost cl.Cost
	uniqueRegs := m.regionsOf(nil, ref[len(ref)-5_000:len(ref)-4_900], &cost)
	repeatRegs := m.regionsOf(nil, motif[:100], &cost)
	avgLen := func(rs []region) float64 {
		total := 0
		for _, r := range rs {
			total += r.end - r.start
		}
		return float64(total) / float64(len(rs))
	}
	if avgLen(repeatRegs) <= avgLen(uniqueRegs) {
		t.Errorf("repeat regions (%.1f) not longer than unique regions (%.1f)",
			avgLen(repeatRegs), avgLen(uniqueRegs))
	}
}

func TestBestStratumAndCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := randText(rng, 15_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	pos := 6000
	read := append([]byte(nil), ref[pos:pos+100]...)
	read[30] = (read[30] + 1) % 4
	res, err := m.Map([][]byte{read}, mapper.Options{MaxErrors: 4, MaxLocations: 100})
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Mappings[0]
	if len(ms) == 0 || len(ms) > bestStratumCap {
		t.Fatalf("mappings = %+v", ms)
	}
	for _, mp := range ms {
		if mp.Dist != ms[0].Dist {
			t.Errorf("mixed strata: %+v", ms)
		}
	}
	if ms[0].Pos != int32(pos) || ms[0].Dist != 1 {
		t.Errorf("best = %+v want pos %d dist 1", ms[0], pos)
	}
}

func TestReverseStrand(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := randText(rng, 12_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	pos := 2000
	read := dna.ReverseComplement(ref[pos : pos+120])
	res, err := m.Map([][]byte{read}, mapper.Options{MaxErrors: 3, MaxLocations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mappings[0]) == 0 || res.Mappings[0][0].Strand != mapper.Reverse ||
		res.Mappings[0][0].Pos != int32(pos) {
		t.Fatalf("reverse mappings = %+v", res.Mappings[0])
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, cl.SystemOneHost()); err == nil {
		t.Error("empty reference accepted")
	}
}

// TestGeneratorAllocFree is the runtime half of the hotalloc contract
// for adaptive-region filtration: after warm-up one work item's
// candidate generation (both strands) allocates nothing.
func TestGeneratorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := randText(rng, 20_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	read := ref[4000:4100]
	gen := generator{m: m, maxCand: 200}.generate
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
