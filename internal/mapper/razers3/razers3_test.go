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

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, cl.SystemOneHost(), 0); err == nil {
		t.Error("empty reference accepted")
	}
	m, err := New(dna.MustEncode("ACGTACGTACGT"), cl.SystemOneHost(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if m.grams.MaxQ() > 12 {
		t.Errorf("maxQ %d not clamped", m.grams.MaxQ())
	}
}

func TestChooseQThreshold(t *testing.T) {
	m, err := New(dna.MustEncode("ACGT"), cl.SystemOneHost(), 11)
	if err != nil {
		t.Fatal(err)
	}
	q, thr := m.chooseQ(100, 3)
	if q != 11 || thr != 100+1-4*11 {
		t.Errorf("chooseQ(100,3) = %d,%d", q, thr)
	}
	// Very high error loads force a smaller q so the threshold stays >= 2.
	q, thr = m.chooseQ(100, 20)
	if thr < 2 || q*(20+1) > 100-1 {
		t.Errorf("chooseQ(100,20) = %d,%d violates the lemma bound", q, thr)
	}
}

func TestFullSensitivityPlantedEdits(t *testing.T) {
	// The q-gram lemma filter must be lossless: every planted location
	// within the edit budget is reported, including indel cases.
	rng := rand.New(rand.NewSource(1))
	ref := randText(rng, 30_000)
	m, err := New(ref, cl.SystemOneHost(), 8)
	if err != nil {
		t.Fatal(err)
	}
	var reads [][]byte
	var origins []int32
	var strands []byte
	for i := 0; i < 60; i++ {
		pos := rng.Intn(len(ref) - 130)
		read := mutateK(rng, ref[pos:pos+100], rng.Intn(4))
		if len(read) > 100 {
			read = read[:100]
		}
		strand := byte('+')
		if rng.Intn(2) == 1 {
			strand = '-'
			read = dna.ReverseComplement(read)
		}
		reads = append(reads, read)
		origins = append(origins, int32(pos))
		strands = append(strands, strand)
	}
	res, err := m.Map(reads, mapper.Options{MaxErrors: 5, MaxLocations: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reads {
		found := false
		for _, mp := range res.Mappings[i] {
			if mp.Strand == strands[i] && abs32(mp.Pos-origins[i]) <= 5 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("read %d: planted origin %d%c not reported", i, origins[i], strands[i])
		}
	}
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

func TestLocationCapRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	motif := randText(rng, 120)
	var ref []byte
	for i := 0; i < 40; i++ { // 40 exact copies: heavy multi-mapping
		ref = append(ref, motif...)
		ref = append(ref, randText(rng, 30)...)
	}
	m, err := New(ref, cl.SystemOneHost(), 8)
	if err != nil {
		t.Fatal(err)
	}
	read := append([]byte(nil), motif[:100]...)
	res, err := m.Map([][]byte{read}, mapper.Options{MaxErrors: 3, MaxLocations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mappings[0]) != 10 {
		t.Errorf("cap 10 produced %d locations", len(res.Mappings[0]))
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

func TestEmptyReadSet(t *testing.T) {
	m, err := New(dna.MustEncode("ACGTACGTACGTACGTACGT"), cl.SystemOneHost(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Map(nil, mapper.Options{MaxErrors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mappings) != 0 {
		t.Errorf("empty set produced %d mapping lists", len(res.Mappings))
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
	q, thr := m.chooseQ(len(read), 4)
	ix, err := m.grams.Get(q)
	if err != nil {
		t.Fatal(err)
	}
	gen := generator{ix: ix, q: q, t: thr, maxErr: 4}.generate
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
