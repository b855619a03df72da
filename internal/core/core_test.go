package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cl"
	"repro/internal/dna"
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

// TestSharesLargestRemainder pins apportion's rounding: floors first,
// then the leftover reads one each by largest fractional part.
func TestSharesLargestRemainder(t *testing.T) {
	for _, tc := range []struct {
		split []float64
		total int
		want  []int
	}{
		// A zero-share device receives no reads, remainder or not.
		{[]float64{0, 1, 0}, 7, []int{0, 7, 0}},
		{[]float64{1, 0, 0}, 4, []int{4, 0, 0}},
		// Equal fractional parts: the lower index takes the leftover.
		{[]float64{0, 0.5, 0.5}, 5, []int{0, 3, 2}},
		{[]float64{0.2, 0.6, 0.2}, 7, []int{2, 4, 1}},
		{[]float64{1, 1, 1}, 2, []int{1, 1, 0}},
		// The largest fractional part first, not the largest weight.
		{[]float64{1, 2, 1}, 1, []int{0, 1, 0}},
		{[]float64{1, 2, 1}, 2, []int{1, 1, 0}},
		{[]float64{1, 2, 1}, 3, []int{1, 1, 1}},
		// Equal fractional parts: the larger weight takes the leftover.
		{[]float64{1, 3}, 2, []int{0, 2}},
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

// TestDealPlacement is the property test of the placement rule. It draws
// device and shard counts, splits (nil, all-zero, mixed zeros), failed
// masks and unit lists — each shard's whole read range as in round 1, or
// scattered spans as a failed device leaves behind — and checks every
// placement deal makes against the rule stated independently here.
func TestDealPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		nDev, nShards, nReads := 1+rng.Intn(5), 1+rng.Intn(4), rng.Intn(60)
		var split []float64
		switch rng.Intn(3) {
		case 1:
			split = make([]float64, nDev)
		case 2:
			split = make([]float64, nDev)
			for i := range split {
				if rng.Intn(2) == 0 {
					split[i] = float64(1+rng.Intn(4)) / 4
				}
			}
		}
		failed := make([]bool, nDev)
		live := nDev
		if rng.Intn(3) > 0 {
			for i := range failed {
				if failed[i] = rng.Intn(5) < 2; failed[i] {
					live--
				}
			}
		}
		anyFailed, allFailed := live < nDev, live == 0
		// units, and the read indices each shard must see placed once.
		var units []unit
		want := make([][]int, nShards)
		for s := range want {
			if !anyFailed || rng.Intn(4) == 0 {
				units = append(units, unit{s, pending{0, nReads}})
				for r := 0; r < nReads; r++ {
					want[s] = append(want[s], r)
				}
				continue
			}
			for start := 0; start < nReads; {
				end := min(nReads, start+1+rng.Intn(12))
				if rng.Intn(2) == 0 {
					units = append(units, unit{s, pending{start, end}})
					for r := start; r < end; r++ {
						want[s] = append(want[s], r)
					}
				}
				start = end
			}
		}
		rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		shards := map[int]bool{}
		for _, u := range units {
			shards[u.shard] = true
		}

		p := &Pipeline{devices: make([]*cl.Device, nDev), split: split}
		desc := fmt.Sprintf("trial %d: %d devices, split %v, failed %v, units %v",
			trial, nDev, split, failed, units)
		assign := p.deal(append([]unit(nil), units...), failed)
		if allFailed && len(units) > 0 {
			if assign != nil {
				t.Fatalf("%s: every device failed, deal placed %v", desc, assign)
			}
			continue
		}
		if len(assign) != nDev {
			t.Fatalf("%s: assignment for %d devices", desc, len(assign))
		}

		// got[s][d]: the reads of shard s device d was dealt, in order.
		got := make([][][]int, nShards)
		for s := range got {
			got[s] = make([][]int, nDev)
		}
		for d, us := range assign {
			if len(us) > 0 && failed[d] {
				t.Fatalf("%s: units %v placed on failed device %d", desc, us, d)
			}
			for i, u := range us {
				if u.span.end <= u.span.start {
					t.Fatalf("%s: empty span %v placed on device %d", desc, u, d)
				}
				if i > 0 && u.shard < us[i-1].shard {
					t.Fatalf("%s: device %d's units are out of shard order: %v", desc, d, us)
				}
				for r := u.span.start; r < u.span.end; r++ {
					got[u.shard][d] = append(got[u.shard][d], r)
				}
			}
		}

		for s := range want {
			// Dealt in device order, each device's reads in read order:
			// the concatenation is the shard's read list, each read once.
			var all []int
			for d := range got[s] {
				all = append(all, got[s][d]...)
			}
			if !reflect.DeepEqual(all, want[s]) {
				t.Fatalf("%s: shard %d dealt %v, want each of %v once in read order", desc, s, got[s], want[s])
			}
			if !shards[s] {
				continue
			}
			// The rule, stated independently of shares.
			weights := make([]float64, nDev)
			positive := false
			for d := range weights {
				if !failed[d] && split != nil {
					weights[d] = split[d]
					positive = positive || split[d] > 0
				}
			}
			switch {
			case positive:
			case !anyFailed:
				weights[s%nDev] = 1
			default:
				for d := range weights {
					if !failed[d] {
						weights[d] = 1
					}
				}
			}
			if sh := p.shares(s, failed); !reflect.DeepEqual(sh, weights) {
				t.Fatalf("%s: shares(%d) = %v, want %v", desc, s, sh, weights)
			}
			counts := apportion(len(want[s]), weights)
			lo, hi := len(want[s]), 0
			for d := range got[s] {
				if len(got[s][d]) != counts[d] {
					t.Fatalf("%s: device %d got %d reads of shard %d, want apportion's %d",
						desc, d, len(got[s][d]), s, counts[d])
				}
				if !failed[d] {
					lo, hi = min(lo, counts[d]), max(hi, counts[d])
				}
			}
			switch {
			case positive:
			case !anyFailed:
				if len(got[s][s%nDev]) != len(want[s]) {
					t.Fatalf("%s: shard %d not whole on device %d: %v", desc, s, s%nDev, got[s])
				}
			default:
				if hi-lo >= live {
					t.Fatalf("%s: shard %d spread unevenly over the survivors: %v", desc, s, got[s])
				}
			}
		}
	}
}

// TestGeneratorAllocFree is the runtime half of the hotalloc contract
// for REPUTE's generator: after warm-up one work item's candidate
// generation (both strands) — the DP seed selection in the worker's
// seed.Scratch, and the budgeted locate-and-append — allocates nothing.
func TestGeneratorAllocFree(t *testing.T) {
	ref, set := testWorld(t, 40_000, 20, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The batch a Map would launch: its generator, and a worker's state
	// built by its kernel (scratch and locate budget).
	b := p.newBatch(&p.shards[0], set.Reads, make([][]mapper.Mapping, len(set.Reads)),
		mapper.Options{MaxErrors: 4, MaxLocations: 100})
	st := b.Kernel().NewState().(*mapper.State)
	read := set.Reads[0]
	var cost cl.Cost
	item := func() { st.Generate(b.Generate, read, &cost) }
	item()
	if len(st.Cands) == 0 {
		t.Fatal("generator found no candidates; the check is vacuous")
	}
	if n := testing.AllocsPerRun(50, item); n != 0 {
		t.Errorf("generator allocates %v times per work item", n)
	}
}

// TestConcurrentMapOneTracedPipeline runs two Map calls on two
// goroutines over one traced pipeline. Each reads and then advances the
// pipeline's traced timeline, which traceMu guards. The second call
// starts once the first has had four times a warm-up call's duration to
// finish, and takes no lock before it reads the timeline, so a read
// without traceMu meets the first call's write with no happens-before
// edge between them, which is what -race reports (time.Sleep orders
// nothing). Every call must map alike and leave a valid trace.
func TestConcurrentMapOneTracedPipeline(t *testing.T) {
	ref, set := testWorld(t, 20_000, 4, simulate.ERR012100)
	rec := trace.NewRecorder()
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	opt := mapper.Options{MaxErrors: 3, MaxLocations: 100}
	start := time.Now()
	want, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	wait := 4*time.Since(start) + 10*time.Millisecond
	var res [2]*mapper.Result
	var errs [2]error
	var wg sync.WaitGroup
	for g := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g == 1 {
				time.Sleep(wait)
			}
			res[g], errs[g] = p.Map(set.Reads, opt)
		}()
	}
	wg.Wait()
	for g := range res {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !reflect.DeepEqual(res[g].Mappings, want.Mappings) {
			t.Errorf("call %d on the shared pipeline mapped differently", g)
		}
	}
	if err := rec.Validate(); err != nil {
		t.Error(err)
	}
}
