package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cl"
	"repro/internal/dna"
	"repro/internal/fmindex"
	"repro/internal/mapper"
	"repro/internal/seed"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// testWorld builds a small repetitive reference plus simulated reads.
func testWorld(t *testing.T, refLen, nReads int, prof simulate.ReadProfile) ([]byte, simulate.ReadSet) {
	t.Helper()
	ref := simulate.Reference(simulate.Chr21Like(refLen, 11))
	set, err := simulate.Reads(ref, nReads, prof, 12)
	if err != nil {
		t.Fatal(err)
	}
	return ref, set
}

func TestPipelineFindsPlantedReads(t *testing.T) {
	ref, set := testWorld(t, 60_000, 120, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Name: "REPUTE-test"})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 5, MaxLocations: 100}
	res, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i, ms := range res.Mappings {
		o := set.Origins[i]
		if int(o.Edits) > opt.MaxErrors {
			continue // too many errors to be findable; not counted
		}
		ok := false
		for _, m := range ms {
			if m.Strand == o.Strand && abs32(m.Pos-o.Pos) <= int32(opt.MaxErrors) {
				ok = true
				break
			}
		}
		if ok {
			found++
		} else {
			t.Logf("read %d origin %d%c edits %d not found (%d mappings)",
				i, o.Pos, o.Strand, o.Edits, len(ms))
		}
	}
	eligible := 0
	for _, o := range set.Origins {
		if int(o.Edits) <= opt.MaxErrors {
			eligible++
		}
	}
	if found < eligible*99/100 {
		t.Fatalf("sensitivity %d/%d below 99%%", found, eligible)
	}
	if res.SimSeconds <= 0 || res.EnergyJ <= 0 {
		t.Errorf("accounting empty: %v s, %v J", res.SimSeconds, res.EnergyJ)
	}
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

func TestPipelineDistancesAreSound(t *testing.T) {
	// Every reported mapping must actually align at the claimed distance.
	ref, set := testWorld(t, 40_000, 60, simulate.SRR826460)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 6, MaxLocations: 50}
	res, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	text := p.Index().Text()
	checked := 0
	for i, ms := range res.Mappings {
		for _, m := range ms {
			if m.Dist > uint8(opt.MaxErrors) {
				t.Fatalf("read %d mapping dist %d > %d", i, m.Dist, opt.MaxErrors)
			}
			pattern := set.Reads[i]
			if m.Strand == mapper.Reverse {
				pattern = dna.ReverseComplement(pattern)
			}
			lo := int(m.Pos) - 1
			if lo < 0 {
				lo = 0
			}
			hi := int(m.Pos) + len(pattern) + opt.MaxErrors
			if hi > text.Len() {
				hi = text.Len()
			}
			win := text.Slice(lo, hi)
			if _, ok := verifyOracle(pattern, win, int(m.Dist)); !ok {
				t.Fatalf("read %d claims pos %d dist %d strand %c but window does not align",
					i, m.Pos, m.Dist, m.Strand)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no mappings produced at all")
	}
}

// verifyOracle is a tiny DP check used only in tests.
func verifyOracle(p, w []byte, k int) (int, bool) {
	prev := make([]int, len(w)+1)
	cur := make([]int, len(w)+1)
	for i := 1; i <= len(p); i++ {
		cur[0] = i
		for j := 1; j <= len(w); j++ {
			cost := 1
			if p[i-1] == w[j-1] {
				cost = 0
			}
			best := prev[j-1] + cost
			if prev[j]+1 < best {
				best = prev[j] + 1
			}
			if cur[j-1]+1 < best {
				best = cur[j-1] + 1
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	bestD := len(p) + len(w)
	for j := 1; j <= len(w); j++ {
		if prev[j] < bestD {
			bestD = prev[j]
		}
	}
	return bestD, bestD <= k
}

func TestPipelineMultiDeviceSplitAgreesWithSingle(t *testing.T) {
	ref, set := testWorld(t, 30_000, 80, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 50}

	single, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	resS, err := single.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	sys := cl.SystemOne()
	multi, err := New(ref, sys.Devices, Config{Split: []float64{0.5, 0.25, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	resM, err := multi.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	for i := range resS.Mappings {
		a, b := resS.Mappings[i], resM.Mappings[i]
		if len(a) != len(b) {
			t.Fatalf("read %d: %d vs %d mappings across splits", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("read %d mapping %d differs: %+v vs %+v", i, j, a[j], b[j])
			}
		}
	}
	if len(resM.DeviceSeconds) != 3 {
		t.Errorf("multi-device run used %d devices want 3", len(resM.DeviceSeconds))
	}
	// Makespan must be the max device time, not the sum.
	var sum, max float64
	for _, s := range resM.DeviceSeconds {
		sum += s
		if s > max {
			max = s
		}
	}
	if resM.SimSeconds != max || (len(resM.DeviceSeconds) > 1 && resM.SimSeconds >= sum) {
		t.Errorf("SimSeconds %v, max %v, sum %v", resM.SimSeconds, max, sum)
	}
}

func TestPipelineBatchingUnderTinyAllocLimit(t *testing.T) {
	ref, set := testWorld(t, 20_000, 40, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: 1000}
	big, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	resWant, err := big.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	// A device whose MaxAlloc holds the index but only a dozen reads'
	// output slots forces many batches; results must not change.
	tinyDev := cl.SystemOneCPU()
	tinyDev.MaxAlloc = big.Index().SizeBytes() + 4096
	tiny, err := NewFromIndex(big.Index(), []*cl.Device{tinyDev}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	resGot, err := tiny.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resWant.Mappings {
		if len(resWant.Mappings[i]) != len(resGot.Mappings[i]) {
			t.Fatalf("read %d: batched run differs", i)
		}
	}
}

func TestPipelineIndexTooBigForDevice(t *testing.T) {
	ref, set := testWorld(t, 20_000, 5, simulate.ERR012100)
	dev := cl.GTX590(0)
	dev.GlobalMem = 1 << 10 // absurd: index cannot fit
	dev.MaxAlloc = 1 << 8
	p, err := New(ref, []*cl.Device{dev}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Map(set.Reads, mapper.Options{MaxErrors: 3}); err == nil {
		t.Error("oversized index accepted on tiny device")
	} else if !strings.Contains(err.Error(), "index does not fit") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestPipelineInfeasibleSminSurfacesError(t *testing.T) {
	ref, set := testWorld(t, 20_000, 5, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Smin 30 with 4 seeds needs 120 bases; reads are 100. The refusal
	// comes before launch and names the read.
	_, err = p.Map(set.Reads, mapper.Options{MaxErrors: 3, MinSeedLen: 30})
	if err == nil || !strings.Contains(err.Error(), "read 0 of length 100 cannot host 4 seeds") {
		t.Errorf("infeasible Smin: got %v", err)
	}
	// Only the DP selector needs the seeds to fit; CORAL shrinks them.
	coral, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Selector: seed.CORAL{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coral.Map(set.Reads, mapper.Options{MaxErrors: 3, MinSeedLen: 30}); err != nil {
		t.Errorf("CORAL refused Smin 30: %v", err)
	}
}

// TestMixedLengthBatchMapsEachReadAsAlone: Smin and the kernel's private
// bytes are per read, not reads[0]'s. At δ = 5, [100 bp, 40 bp] used to
// fail the whole call — the 40 bp read cannot host 6 seeds of the 100 bp
// read's Smin 9 — and [40 bp, 100 bp] seeded the 100 bp read with the
// 40 bp read's Smin 6. Both orders must map, and seed, every read as it
// is mapped and seeded alone.
func TestMixedLengthBatchMapsEachReadAsAlone(t *testing.T) {
	ref, _ := testWorld(t, 50_000, 1, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	long := append([]byte(nil), ref[12_000:12_100]...)
	long[30], long[70] = (long[30]+1)%4, (long[70]+2)%4
	short := append([]byte(nil), ref[31_000:31_040]...)
	short[20] = (short[20] + 1) % 4
	opt := mapper.Options{MaxErrors: 5, MaxLocations: 100}
	alone := map[int]*mapper.Result{}
	for _, r := range [][]byte{long, short} {
		res, err := p.Map([][]byte{r}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Mappings[0]) == 0 {
			t.Fatalf("%d bp read maps nowhere alone; the check is vacuous", len(r))
		}
		alone[len(r)] = res
	}
	for _, reads := range [][][]byte{{long, short}, {short, long}} {
		res, err := p.Map(reads, opt)
		if err != nil {
			t.Errorf("[%d bp, %d bp]: %v", len(reads[0]), len(reads[1]), err)
			continue
		}
		for i, r := range reads {
			if !reflect.DeepEqual(res.Mappings[i], alone[len(r)].Mappings[0]) {
				t.Errorf("[%d bp, %d bp]: read %d maps to %v, alone to %v",
					len(reads[0]), len(reads[1]), i, res.Mappings[i], alone[len(r)].Mappings[0])
			}
		}
		for _, f := range []struct {
			name      string
			got, want int64
		}{
			{"FMSteps", res.Cost.FMSteps, alone[100].Cost.FMSteps + alone[40].Cost.FMSteps},
			{"DPCells", res.Cost.DPCells, alone[100].Cost.DPCells + alone[40].Cost.DPCells},
		} {
			if f.got != f.want {
				t.Errorf("[%d bp, %d bp]: %s %d, the reads alone %d", len(reads[0]), len(reads[1]), f.name, f.got, f.want)
			}
		}
	}
}

// TestBatchSizedByLongestRead: a batch's read buffer holds its longest
// read per slot, so the batch bound must come from the span's longest
// read, not its first. Short reads followed by one long read under a
// tight MaxAlloc used to overflow the read buffer on a fault-free run,
// halving the batch and counting a degraded batch.
func TestBatchSizedByLongestRead(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "") // the property is about fault-free runs
	ref, _ := testWorld(t, 10_000, 1, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 2, MaxLocations: 1}
	big, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := cl.SystemOneCPU()
	dev.MaxAlloc = big.Index().SizeBytes()
	const shortLen, longLen = 40, 800
	// Enough short reads that all of them plus the long read, sized by
	// the long read, overflow MaxAlloc; sized by a short read they fit.
	n := int(dev.MaxAlloc/((longLen+3)/4)) + 1
	if int64(n+1)*((shortLen+3)/4) > dev.MaxAlloc {
		t.Fatalf("%d short reads overflow MaxAlloc %d on their own", n, dev.MaxAlloc)
	}
	reads := make([][]byte, 0, n+1)
	for i := 0; i < n; i++ {
		at := (i * 37) % (len(ref) - shortLen)
		reads = append(reads, ref[at:at+shortLen])
	}
	reads = append(reads, ref[5_000:5_000+longLen])

	want, err := big.Map(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	tight, err := NewFromIndex(big.Index(), []*cl.Device{dev}, Config{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	got, err := tight.Map(reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Mappings, want.Mappings) {
		t.Error("tight-MaxAlloc mappings differ from the baseline")
	}
	if got.Faults.DegradedBatches != 0 {
		t.Errorf("fault-free run degraded %d batch(es)", got.Faults.DegradedBatches)
	}
	for _, ev := range rec.Events() {
		if ev.Name == "batch-halved" {
			t.Errorf("fault-free run halved a batch: %+v", ev)
		}
	}
}

func TestPipelineValidatesInputs(t *testing.T) {
	ref, _ := testWorld(t, 20_000, 1, simulate.ERR012100)
	if _, err := New(nil, []*cl.Device{cl.SystemOneCPU()}, Config{}); err == nil {
		t.Error("empty reference accepted")
	}
	if _, err := New(ref, nil, Config{}); err == nil {
		t.Error("no devices accepted")
	}
	if _, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Split: []float64{1, 2}}); err == nil {
		t.Error("mismatched split accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := New(ref, cl.SystemOne().Devices[:2], Config{Split: []float64{bad, 1}}); err == nil {
			t.Errorf("split share %v accepted", bad)
		}
	}
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Map([][]byte{{}}, mapper.Options{MaxErrors: 1}); err == nil {
		t.Error("empty read accepted")
	}
	if _, err := p.Map([][]byte{{9, 9}}, mapper.Options{MaxErrors: 1}); err == nil {
		t.Error("invalid codes accepted")
	}
}

func TestCORALSelectorPipeline(t *testing.T) {
	ref, set := testWorld(t, 40_000, 60, simulate.ERR012100)
	rep, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Name: "REPUTE"})
	if err != nil {
		t.Fatal(err)
	}
	cor, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Name: "CORAL", Selector: seed.CORAL{}})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}
	r1, err := rep.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := cor.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The heuristic cannot beat the DP optimum on filtration work:
	// CORAL verifies at least as many windows in aggregate.
	if r2.Cost.VerifyWords < r1.Cost.VerifyWords {
		t.Errorf("CORAL verify words %d < REPUTE %d — heuristic beating the optimum",
			r2.Cost.VerifyWords, r1.Cost.VerifyWords)
	}
	if r1.MappedReads() == 0 || r2.MappedReads() == 0 {
		t.Error("a pipeline mapped nothing")
	}
}

func TestSampledIndexMapsIdentically(t *testing.T) {
	// The §IV memory trade-off must not change results: pipelines over a
	// full-SA index and a sampled one report identical mappings.
	ref, set := testWorld(t, 30_000, 50, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}
	full, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := NewFromIndex(fmindex.Build(ref, fmindex.Options{SASampleRate: 32}),
		[]*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := full.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sampled.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rf.Mappings {
		if len(rf.Mappings[i]) != len(rs.Mappings[i]) {
			t.Fatalf("read %d: %d vs %d mappings", i, len(rf.Mappings[i]), len(rs.Mappings[i]))
		}
		for j := range rf.Mappings[i] {
			if rf.Mappings[i][j] != rs.Mappings[i][j] {
				t.Fatalf("read %d mapping %d differs: %+v vs %+v",
					i, j, rf.Mappings[i][j], rs.Mappings[i][j])
			}
		}
	}
	if rs.Cost.LocateSteps <= rf.Cost.LocateSteps {
		t.Errorf("sampled locate steps %d not above full %d",
			rs.Cost.LocateSteps, rf.Cost.LocateSteps)
	}
}

func TestCigarForReportedMappings(t *testing.T) {
	ref, set := testWorld(t, 30_000, 40, simulate.SRR826460)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 5, MaxLocations: 20}
	res, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, ms := range res.Mappings {
		for _, m := range ms {
			c, err := p.CigarFor(set.Reads[i], m, opt.MaxErrors)
			if err != nil {
				t.Fatalf("read %d mapping %+v: %v", i, m, err)
			}
			if c.ReadLen() != len(set.Reads[i]) {
				t.Fatalf("read %d: cigar %s consumes %d bases want %d",
					i, c, c.ReadLen(), len(set.Reads[i]))
			}
			pattern := set.Reads[i]
			if m.Strand == mapper.Reverse {
				pattern = dna.ReverseComplement(pattern)
			}
			seg := p.Index().Text().Slice(int(m.Pos), int(m.Pos)+c.RefLen())
			if edits := c.Edits(pattern, seg); edits > int(m.Dist) {
				t.Fatalf("read %d: cigar implies %d edits, mapping says %d", i, edits, m.Dist)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("nothing mapped")
	}
	// Out-of-range positions must error, not panic.
	if _, err := p.CigarFor(set.Reads[0], mapper.Mapping{Pos: 1 << 30}, 3); err == nil {
		t.Error("absurd position accepted")
	}
}

func TestDefaultMinSeedLen(t *testing.T) {
	for _, tc := range []struct{ n, e, want int }{
		{100, 3, 14}, {100, 5, 9}, {100, 7, 8}, {150, 5, 16}, {150, 7, 13}, {10, 9, 1},
	} {
		if got := DefaultMinSeedLen(tc.n, tc.e); got != tc.want {
			t.Errorf("DefaultMinSeedLen(%d,%d) = %d want %d", tc.n, tc.e, got, tc.want)
		}
	}
}

func TestSharesSumToTotal(t *testing.T) {
	for _, total := range []int{0, 1, 7, 1000, 999_999} {
		counts := apportion(total, []float64{0.82, 0.09, 0.09})
		sum := 0
		for _, c := range counts {
			if c < 0 {
				t.Fatalf("negative share %v", counts)
			}
			sum += c
		}
		if sum != total {
			t.Fatalf("shares of %d sum to %d: %v", total, sum, counts)
		}
	}
}

func TestSharesRemainderGoesToLargestShare(t *testing.T) {
	for _, tc := range []struct {
		split []float64
		total int
		want  []int
	}{
		// A zero-share device must receive no reads — the remainder
		// belongs to the largest share, not unconditionally to device 0.
		{[]float64{0, 1, 0}, 7, []int{0, 7, 0}},
		{[]float64{0, 0.5, 0.5}, 5, []int{0, 3, 2}},
		// Largest-share device takes the rounding leftovers.
		{[]float64{0.2, 0.6, 0.2}, 7, []int{1, 5, 1}},
		{[]float64{1, 0, 0}, 4, []int{4, 0, 0}},
	} {
		counts := apportion(tc.total, tc.split)
		for i := range counts {
			if counts[i] != tc.want[i] {
				t.Errorf("shares(%v, %d) = %v want %v", tc.split, tc.total, counts, tc.want)
				break
			}
		}
	}
}

// cannedSelector replays one recorded selection per strand, so the
// generator's own work — budgeted locate-and-append — is measured
// without seed.Selector's per-call DP tables (ROADMAP item 1).
type cannedSelector struct {
	byFirstBase [4]seed.Selection
}

func (cannedSelector) Name() string { return "canned" }

func (c cannedSelector) Select(_ *fmindex.Index, read []byte, _ seed.Params) (seed.Selection, error) {
	return c.byFirstBase[read[0]], nil
}

// TestGeneratorAllocFree is the runtime half of the hotalloc contract
// for REPUTE's generator: after warm-up one work item's candidate
// generation (both strands) allocates nothing beyond what the selector
// itself does.
func TestGeneratorAllocFree(t *testing.T) {
	ref, set := testWorld(t, 40_000, 20, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ix := p.Index()
	params := seed.Params{Errors: 4, MinSeedLen: DefaultMinSeedLen(100, 4)}
	// A read whose strands start with different bases tells them apart.
	var read []byte
	for _, r := range set.Reads {
		if rc := dna.ReverseComplement(r); rc[0] != r[0] {
			read = r
			break
		}
	}
	var canned cannedSelector
	for _, pattern := range [][]byte{read, dna.ReverseComplement(read)} {
		sel, err := seed.REPUTE{}.Select(ix, pattern, params)
		if err != nil {
			t.Fatal(err)
		}
		canned.byFirstBase[pattern[0]] = sel
	}
	gen := &generator{ix: ix, selector: canned, params: params, maxCand: 200}
	st := &mapper.State{}
	var cost cl.Cost
	item := func() { st.Generate(gen.generate, read, &cost) }
	item()
	if len(st.Cands) == 0 {
		t.Fatal("generator found no candidates; the check is vacuous")
	}
	if n := testing.AllocsPerRun(50, item); n != 0 {
		t.Errorf("generator allocates %v times per work item", n)
	}
}
