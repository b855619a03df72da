package yara

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
	if got := len(res.Mappings[0]); got != mapper.BestStratumCap {
		t.Errorf("reported %d locations want stratum cap %d", got, mapper.BestStratumCap)
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
	gen := generator{ix: m.ix, seedErr: 1}.generate
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
