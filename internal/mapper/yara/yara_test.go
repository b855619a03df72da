package yara

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

func TestBestModeReportsOnlyBestStratum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := randText(rng, 20_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	pos := 7777
	read := append([]byte(nil), ref[pos:pos+100]...)
	read[50] = (read[50] + 1) % 4 // one substitution: best stratum is dist 1
	res, err := m.Map([][]byte{read}, mapper.Options{MaxErrors: 4, MaxLocations: 100})
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Mappings[0]
	if len(ms) == 0 {
		t.Fatal("read not mapped")
	}
	for _, mp := range ms {
		if mp.Dist != ms[0].Dist {
			t.Errorf("mixed strata in best mode: %+v", ms)
		}
	}
	if ms[0].Pos != int32(pos) || ms[0].Dist != 1 {
		t.Errorf("best mapping = %+v want pos %d dist 1", ms[0], pos)
	}
}

func TestBestStratumCapApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	motif := randText(rng, 150)
	var ref []byte
	for i := 0; i < 30; i++ { // 30 identical copies: stratum would be 30
		ref = append(ref, motif...)
		ref = append(ref, randText(rng, 40)...)
	}
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Map([][]byte{motif[:100]}, mapper.Options{MaxErrors: 3, MaxLocations: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Mappings[0]); got != bestStratumCap {
		t.Errorf("reported %d locations want stratum cap %d", got, bestStratumCap)
	}
}

func TestApproximateSeedsFindHighErrorReads(t *testing.T) {
	// With δ substitutions spread evenly, plain exact δ/2+1 seeds would
	// fail, but 1-error approximate seeds must succeed (pigeonhole).
	rng := rand.New(rand.NewSource(3))
	ref := randText(rng, 30_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	misses := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		const d = 6
		pos := rng.Intn(len(ref) - 150)
		read := append([]byte(nil), ref[pos:pos+150]...)
		for e := 0; e < d; e++ {
			p := e*25 + rng.Intn(20)
			read[p] = (read[p] + 1 + byte(rng.Intn(3))) % 4
		}
		res, err := m.Map([][]byte{read}, mapper.Options{MaxErrors: d, MaxLocations: 100})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, mp := range res.Mappings[0] {
			// Equal-cost alignments can shift the reported start by a
			// base or two; accept a small neighbourhood.
			if mp.Strand == mapper.Forward && mp.Pos >= int32(pos-2) && mp.Pos <= int32(pos+2) {
				found = true
			}
		}
		if !found {
			misses++
		}
	}
	// ceil((6+1)/2)=4 seeds with <=1 error each tolerate 6 errors by
	// pigeonhole, so every planted read must be found.
	if misses > 0 {
		t.Errorf("%d/%d planted reads missed", misses, trials)
	}
}

func TestCostGrowsWithErrors(t *testing.T) {
	// Approximate-seed backtracking is what makes Yara's time climb with
	// δ (the Table I trend REPUTE's 13x claim rests on).
	rng := rand.New(rand.NewSource(4))
	ref := randText(rng, 40_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	var reads [][]byte
	for i := 0; i < 30; i++ {
		pos := rng.Intn(len(ref) - 150)
		reads = append(reads, ref[pos:pos+150])
	}
	res3, err := m.Map(reads, mapper.Options{MaxErrors: 3, MaxLocations: 100})
	if err != nil {
		t.Fatal(err)
	}
	res7, err := m.Map(reads, mapper.Options{MaxErrors: 7, MaxLocations: 100})
	if err != nil {
		t.Fatal(err)
	}
	// δ=7 moves the per-seed budget from 1 to 2 substitutions: the
	// backtracking tree explodes, not just grows.
	if res7.Cost.FMSteps < 5*res3.Cost.FMSteps {
		t.Errorf("FM steps δ=7 (%d) not ≥5x δ=3 (%d)", res7.Cost.FMSteps, res3.Cost.FMSteps)
	}
	if res7.SimSeconds <= res3.SimSeconds {
		t.Errorf("time did not grow with δ: %v vs %v", res7.SimSeconds, res3.SimSeconds)
	}
}

func TestReverseStrand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := randText(rng, 10_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	pos := 2500
	read := dna.ReverseComplement(ref[pos : pos+100])
	res, err := m.Map([][]byte{read}, mapper.Options{MaxErrors: 3, MaxLocations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mappings[0]) == 0 || res.Mappings[0][0].Strand != mapper.Reverse {
		t.Fatalf("reverse read mappings = %+v", res.Mappings[0])
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, cl.SystemOneHost()); err == nil {
		t.Error("empty reference accepted")
	}
}

// TestGeneratorAllocFree is the runtime half of the hotalloc contract
// for the approximate-seed filter: after warm-up one work item's
// candidate generation (both strands, one substitution per seed)
// allocates nothing.
func TestGeneratorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := randText(rng, 20_000)
	m, err := New(ref, cl.SystemOneHost())
	if err != nil {
		t.Fatal(err)
	}
	read := ref[4000:4100]
	gen := generator{ix: m.ix, seedErr: 1, maxCand: 800}.generate
	st := &mapper.State{}
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
