package razers3

import (
	"math/rand"
	"sync"
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

func mutateK(rng *rand.Rand, s []byte, k int) []byte {
	out := append([]byte(nil), s...)
	for e := 0; e < k; e++ {
		p := rng.Intn(len(out))
		switch rng.Intn(3) {
		case 0:
			out[p] = (out[p] + 1 + byte(rng.Intn(3))) % 4
		case 1:
			out = append(out[:p], append([]byte{byte(rng.Intn(4))}, out[p:]...)...)
		default:
			out = append(out[:p], out[p+1:]...)
		}
	}
	return out
}

func TestChooseQThreshold(t *testing.T) {
	m, err := New(dna.MustEncode("ACGT"), cl.SystemOneHost(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if q := m.chooseQ(100, 3); q != 11 || threshold(100, 3, q) != 100+1-4*11 {
		t.Errorf("chooseQ(100,3) = %d", q)
	}
	// Very high error loads force a smaller q so the threshold stays >= 2.
	if q := m.chooseQ(100, 20); threshold(100, 20, q) < 2 || q*(20+1) > 100-1 {
		t.Errorf("chooseQ(100,20) = %d violates the lemma bound", q)
	}
}

func TestTimeGrowsWithErrorBudget(t *testing.T) {
	// Lower q-gram thresholds mean more candidates: simulated time must
	// not shrink as δ rises (Table I's RazerS3 column trend).
	rng := rand.New(rand.NewSource(3))
	ref := randText(rng, 40_000)
	m, err := New(ref, cl.SystemOneHost(), 8)
	if err != nil {
		t.Fatal(err)
	}
	var reads [][]byte
	for i := 0; i < 50; i++ {
		pos := rng.Intn(len(ref) - 100)
		reads = append(reads, ref[pos:pos+100])
	}
	prev := -1.0
	for _, d := range []int{3, 5, 7} {
		res, err := m.Map(reads, mapper.Options{MaxErrors: d, MaxLocations: 100})
		if err != nil {
			t.Fatal(err)
		}
		if res.SimSeconds < prev {
			t.Errorf("δ=%d time %v below δ-2 time %v", d, res.SimSeconds, prev)
		}
		prev = res.SimSeconds
	}
}

// TestGeneratorAllocFree is the runtime half of the hotalloc contract
// for the counting filter: after warm-up one work item's candidate
// generation (both strands) allocates nothing.
func TestGeneratorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := randText(rng, 20_000)
	m, err := New(ref, cl.SystemOneHost(), 9)
	if err != nil {
		t.Fatal(err)
	}
	read := mutateK(rng, ref[4000:4100], 3)
	q := m.chooseQ(len(read), 4)
	ix, err := m.grams.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	gen := generator{ix: ix, q: q, maxErr: 4}.generate
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

// TestConcurrentMapSharesIndexCache maps from two goroutines on one
// mapper, both needing the same unbuilt q-gram index (run under -race).
func TestConcurrentMapSharesIndexCache(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ref := randText(rng, 20_000)
	m, err := New(ref, cl.SystemOneHost(), 9)
	if err != nil {
		t.Fatal(err)
	}
	reads := [][]byte{ref[100:200], ref[5000:5100]}
	results := make([]*mapper.Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = m.Map(reads, mapper.Options{MaxErrors: 2 * g})
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if results[g].MappedReads() != len(reads) {
			t.Errorf("goroutine %d mapped %d of %d exact reads", g, results[g].MappedReads(), len(reads))
		}
	}
}
