package mapper_test

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/eval"
	"repro/internal/sam"
	"testing"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/dna"
	"repro/internal/mapper"
	"repro/internal/mapper/bwamem"
	"repro/internal/mapper/coral"
	"repro/internal/mapper/gem"
	"repro/internal/mapper/hobbes3"
	"repro/internal/mapper/razers3"
	"repro/internal/mapper/yara"
	"repro/internal/simulate"
)

type world struct {
	ref     []byte
	set     simulate.ReadSet
	mappers map[string]mapper.Mapper
}

func buildWorld(t *testing.T, refLen, nReads int, prof simulate.ReadProfile) *world {
	t.Helper()
	ref := simulate.Reference(simulate.Chr21Like(refLen, 21))
	set, err := simulate.Reads(ref, nReads, prof, 22)
	if err != nil {
		t.Fatal(err)
	}
	host := cl.SystemOneHost()
	cpu := cl.SystemOneCPU()
	w := &world{ref: ref, set: set, mappers: map[string]mapper.Mapper{}}

	rz, err := razers3.New(ref, host, 9)
	if err != nil {
		t.Fatal(err)
	}
	w.mappers["RazerS3"] = rz
	hb, err := hobbes3.New(ref, host, 9)
	if err != nil {
		t.Fatal(err)
	}
	w.mappers["Hobbes3"] = hb
	ya, err := yara.New(ref, host)
	if err != nil {
		t.Fatal(err)
	}
	w.mappers["Yara"] = ya
	bw, err := bwamem.New(ref, host)
	if err != nil {
		t.Fatal(err)
	}
	w.mappers["BWA-MEM"] = bw
	gm, err := gem.New(ref, host)
	if err != nil {
		t.Fatal(err)
	}
	w.mappers["GEM"] = gm
	rp, err := core.New(ref, []*cl.Device{cpu}, core.Config{Name: "REPUTE-cpu"})
	if err != nil {
		t.Fatal(err)
	}
	w.mappers["REPUTE"] = rp
	co, err := coral.New(ref, []*cl.Device{cpu}, nil, "CORAL-cpu")
	if err != nil {
		t.Fatal(err)
	}
	w.mappers["CORAL"] = co
	return w
}

// originFound reports whether any mapping matches the origin within ±tol.
func originFound(ms []mapper.Mapping, o simulate.Origin, tol int32) bool {
	for _, m := range ms {
		if m.Strand == o.Strand && abs32(m.Pos-o.Pos) <= tol {
			return true
		}
	}
	return false
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

func TestAllMappersEndToEnd(t *testing.T) {
	w := buildWorld(t, 50_000, 100, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 5, MaxLocations: 100}

	results := map[string]*mapper.Result{}
	for name, m := range w.mappers {
		res, err := m.Map(w.set.Reads, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.SimSeconds <= 0 || res.EnergyJ <= 0 {
			t.Errorf("%s: timing/energy missing (%v s, %v J)", name, res.SimSeconds, res.EnergyJ)
		}
		results[name] = res
	}

	eligible := 0
	sensitivity := map[string]int{}
	for i, o := range w.set.Origins {
		if int(o.Edits) > opt.MaxErrors {
			continue
		}
		eligible++
		for name, res := range results {
			if originFound(res.Mappings[i], o, int32(opt.MaxErrors)) {
				sensitivity[name]++
			}
		}
	}
	if eligible < 80 {
		t.Fatalf("only %d eligible reads; workload broken", eligible)
	}
	// Full-sensitivity all-mappers must find every planted origin.
	for _, name := range []string{"RazerS3", "Hobbes3"} {
		if sensitivity[name] != eligible {
			t.Errorf("%s sensitivity %d/%d — must be lossless", name, sensitivity[name], eligible)
		}
	}
	// DP/heuristic OpenCL mappers: near-perfect, as in the paper (99.9+).
	for _, name := range []string{"REPUTE", "CORAL"} {
		if sensitivity[name] < eligible*98/100 {
			t.Errorf("%s sensitivity %d/%d below 98%%", name, sensitivity[name], eligible)
		}
	}
	// Best-mappers: they report few locations but should still hit the
	// origin for most reads (any-best style).
	for _, name := range []string{"Yara", "GEM", "BWA-MEM"} {
		if sensitivity[name] < eligible*70/100 {
			t.Errorf("%s any-best sensitivity %d/%d below 70%%", name, sensitivity[name], eligible)
		}
	}
	// Best-mappers must report far fewer locations than all-mappers
	// (the Table I vs Table II accuracy contrast).
	if results["Yara"].TotalLocations() >= results["RazerS3"].TotalLocations() {
		t.Errorf("Yara locations %d >= RazerS3 %d",
			results["Yara"].TotalLocations(), results["RazerS3"].TotalLocations())
	}
	if results["BWA-MEM"].TotalLocations() > results["BWA-MEM"].MappedReads() {
		t.Errorf("BWA-MEM reported multiple locations per read")
	}
}

func TestMappingsAreSoundAcrossMappers(t *testing.T) {
	w := buildWorld(t, 30_000, 40, simulate.SRR826460)
	opt := mapper.Options{MaxErrors: 6, MaxLocations: 50}
	text := dna.Pack(w.ref)
	for name, m := range w.mappers {
		res, err := m.Map(w.set.Reads, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, ms := range res.Mappings {
			for _, mp := range ms {
				if mp.Dist > uint8(opt.MaxErrors) {
					t.Fatalf("%s read %d: dist %d > δ", name, i, mp.Dist)
				}
				pattern := w.set.Reads[i]
				if mp.Strand == mapper.Reverse {
					pattern = dna.ReverseComplement(pattern)
				}
				lo := int(mp.Pos)
				hi := lo + len(pattern) + opt.MaxErrors
				if lo < 0 || lo >= text.Len() {
					t.Fatalf("%s read %d: position %d out of range", name, i, mp.Pos)
				}
				if hi > text.Len() {
					hi = text.Len()
				}
				win := text.Slice(lo, hi)
				if d := editDistancePrefixT(pattern, win); d > int(mp.Dist) {
					t.Fatalf("%s read %d: claimed dist %d at %d, actual %d",
						name, i, mp.Dist, mp.Pos, d)
				}
			}
		}
	}
}

// editDistancePrefixT: min edit distance of p vs any prefix of w.
func editDistancePrefixT(p, w []byte) int {
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
	best := prev[0]
	for _, v := range prev {
		if v < best {
			best = v
		}
	}
	return best
}

func TestSAMRoundTripAccuracyPipeline(t *testing.T) {
	// End-to-end plumbing of cmd/accuracy: map with gold + candidate,
	// serialise both to SAM, parse back, group, and score. The metrics
	// computed from the SAM files must equal those computed in memory.
	w := buildWorld(t, 25_000, 40, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}
	gold, err := w.mappers["RazerS3"].Map(w.set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	test, err := w.mappers["Yara"].Map(w.set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	toSAM := func(res *mapper.Result) map[string][]mapper.Mapping {
		var buf bytes.Buffer
		sw, err := sam.NewWriter(&buf, "ref", len(w.ref))
		if err != nil {
			t.Fatal(err)
		}
		for i, ms := range res.Mappings {
			name := fmt.Sprintf("r%04d", i)
			if err := sw.WriteRead(name, nil, ms); err != nil {
				t.Fatal(err)
			}
		}
		sw.Flush()
		recs, err := sam.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return sam.GroupByRead(recs)
	}
	goldSAM := toSAM(gold)
	testSAM := toSAM(test)

	goldLists := make([][]mapper.Mapping, len(w.set.Reads))
	testLists := make([][]mapper.Mapping, len(w.set.Reads))
	for i := range w.set.Reads {
		name := fmt.Sprintf("r%04d", i)
		goldLists[i] = goldSAM[name]
		testLists[i] = testSAM[name]
	}
	viaSAM := eval.AccuracyAll(goldLists, testLists, int32(opt.MaxErrors))
	direct := eval.AccuracyAll(gold.Mappings, test.Mappings, int32(opt.MaxErrors))
	if math.Abs(viaSAM-direct) > 1e-9 {
		t.Errorf("accuracy via SAM %v != in-memory %v", viaSAM, direct)
	}
	anyBest := eval.AccuracyAnyBest(goldLists, testLists, int32(opt.MaxErrors))
	if anyBest < direct {
		t.Errorf("any-best %v below all-locations %v for the same output", anyBest, direct)
	}
}

func TestBestMapperModes(t *testing.T) {
	w := buildWorld(t, 20_000, 30, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}
	for _, name := range []string{"Yara", "GEM"} {
		res, err := w.mappers[name].Map(w.set.Reads, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, ms := range res.Mappings {
			if len(ms) == 0 {
				continue
			}
			best := ms[0].Dist
			for _, m := range ms {
				if m.Dist < best {
					best = m.Dist
				}
			}
			for _, m := range ms {
				if m.Dist != best {
					t.Fatalf("%s read %d: non-best stratum reported (%d vs %d)",
						name, i, m.Dist, best)
				}
			}
		}
	}
}

// TestPrefilterHonouredByEveryMapper: Options.Prefilter is validated for
// every mapper, so every mapper must honour it or refuse it. The six
// Myers-verifying mappers run the shared stage list, where the filter
// only ever drops candidates verification would reject: mappings are
// identical with it on, the weighted FilterWords show it ran, and the
// filtration tallies account for every candidate. BWA-MEM has no such
// stage and returns an error rather than dropping the option.
func TestPrefilterHonouredByEveryMapper(t *testing.T) {
	w := buildWorld(t, 30_000, 60, simulate.ERR012100)
	for name, m := range w.mappers {
		t.Run(name, func(t *testing.T) {
			opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}
			off, err := m.Map(w.set.Reads, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Prefilter = mapper.PrefilterGateKeeper
			on, err := m.Map(w.set.Reads, opt)
			if name == "BWA-MEM" {
				if err == nil {
					t.Fatal("gatekeeper prefilter accepted and silently ignored")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := eval.PrefilterGate(off.Mappings, on.Mappings); err != nil {
				t.Error(err)
			}
			c, c0 := on.Cost, off.Cost
			if c.FilterWords <= 0 || c0.FilterWords != 0 {
				t.Errorf("FilterWords on %d, off %d", c.FilterWords, c0.FilterWords)
			}
			if c.Candidates != c0.Candidates || c.Verified != c0.Verified || c.Candidates == 0 {
				t.Errorf("candidates/verified on %d/%d, off %d/%d", c.Candidates, c.Verified, c0.Candidates, c0.Verified)
			}
			// Filtered + FalseAccepts + matched = Candidates, where matched
			// (candidates whose window verified) is at least the distinct
			// positions reported.
			if matched := c.Candidates - c.Filtered - c.FalseAccepts; matched < c.Verified || c.Filtered < 0 || c.FalseAccepts < 0 {
				t.Errorf("tallies do not add up: %d candidates, %d filtered, %d false accepts, %d verified",
					c.Candidates, c.Filtered, c.FalseAccepts, c.Verified)
			}
			if c.Filtered > 0 && c.VerifyWords >= c0.VerifyWords {
				t.Errorf("%d candidates filtered but VerifyWords %d >= unfiltered %d", c.Filtered, c.VerifyWords, c0.VerifyWords)
			}
			if c.Filtered == 0 && c.VerifyWords != c0.VerifyWords {
				t.Errorf("nothing filtered but VerifyWords %d != unfiltered %d", c.VerifyWords, c0.VerifyWords)
			}
		})
	}
}
