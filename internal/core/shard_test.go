package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cl"
	"repro/internal/fmindex"
	"repro/internal/mapper"
	"repro/internal/simulate"
)

// makeShards partitions ref into k ownership ranges with the given slice
// overlap and builds one FM-index per slice — the in-memory equivalent of
// a sharded index artifact.
func makeShards(ref []byte, k, overlap, rate int) []Shard {
	n := int64(len(ref))
	shards := make([]Shard, k)
	for i := 0; i < k; i++ {
		own0 := n * int64(i) / int64(k)
		own1 := n * int64(i+1) / int64(k)
		s0 := own0 - int64(overlap)
		if s0 < 0 {
			s0 = 0
		}
		s1 := own1 + int64(overlap)
		if s1 > n {
			s1 = n
		}
		shards[i] = Shard{
			Index:      fmindex.Build(ref[s0:s1], fmindex.Options{SASampleRate: rate}),
			OwnStart:   own0,
			OwnEnd:     own1,
			SliceStart: s0,
			SliceEnd:   s1,
		}
	}
	return shards
}

// TestGeometryEquivalence is the one-geometry property as a single table:
// a whole index is just the one shard that owns [0, n), so NewFromIndex
// and NewSharded over that single shard are the same pipeline — mappings,
// Cost, SimSeconds, EnergyJ and DeviceSeconds equal bit for bit, Split
// included — and K = 3 shards report the same mappings, across the
// pre-alignment filter, device counts and host execution modes.
func TestGeometryEquivalence(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 20_000, 40, simulate.ERR012100)
	ix := fmindex.Build(ref, fmindex.Options{})
	n := int64(len(ref))
	three := makeShards(ref, 3, 256, 0)
	constructors := []struct {
		name     string
		oneShard bool
		build    func([]*cl.Device, Config) (*Pipeline, error)
	}{
		{"NewFromIndex", true, func(d []*cl.Device, c Config) (*Pipeline, error) { return NewFromIndex(ix, d, c) }},
		{"NewSharded-1", true, func(d []*cl.Device, c Config) (*Pipeline, error) {
			return NewSharded([]Shard{{Index: ix, OwnEnd: n, SliceEnd: n}}, 0, d, c)
		}},
		{"NewSharded-3", false, func(d []*cl.Device, c Config) (*Pipeline, error) { return NewSharded(three, 256, d, c) }},
	}
	off, on := prefilterOpt(4, 50)

	var want [][]mapper.Mapping // the table's first cell; every other cell must match it
	for _, opt := range []mapper.Options{off, on} {
		for _, devices := range []int{1, 3} {
			for _, exec := range []cl.ExecMode{cl.Serial, cl.Auto} {
				var first *mapper.Result // the first one-shard constructor's result for this cell
				for _, c := range constructors {
					devs := []*cl.Device{cl.SystemOneCPU()}
					cfg := Config{Exec: exec}
					if devices == 3 {
						devs = cl.SystemOne().Devices
						if c.oneShard {
							cfg.Split = []float64{0.5, 0.25, 0.25}
						}
					}
					p, err := c.build(devs, cfg)
					if err != nil {
						t.Fatalf("%s prefilter=%s devices=%d: %v", c.name, opt.Prefilter, devices, err)
					}
					if p.Sharded() == c.oneShard || (p.Index() == ix) != c.oneShard {
						t.Errorf("%s misreports its geometry", c.name)
					}
					got, err := p.Map(set.Reads, opt)
					if err != nil {
						t.Fatalf("%s prefilter=%s devices=%d exec=%v: %v", c.name, opt.Prefilter, devices, exec, err)
					}
					if want == nil {
						want = got.Mappings
					}
					sameMappings(t, want, got.Mappings)
					if got.SimSeconds <= 0 || got.EnergyJ <= 0 {
						t.Errorf("%s: accounting empty: %v s, %v J", c.name, got.SimSeconds, got.EnergyJ)
					}
					if !c.oneShard {
						continue
					}
					if first == nil {
						first = got
						continue
					}
					if got.Cost != first.Cost || got.SimSeconds != first.SimSeconds || got.EnergyJ != first.EnergyJ ||
						!reflect.DeepEqual(got.DeviceSeconds, first.DeviceSeconds) {
						t.Errorf("prefilter=%s devices=%d exec=%v: one-shard constructors disagree:\n%+v %v s %v J %v\n%+v %v s %v J %v",
							opt.Prefilter, devices, exec,
							first.Cost, first.SimSeconds, first.EnergyJ, first.DeviceSeconds,
							got.Cost, got.SimSeconds, got.EnergyJ, got.DeviceSeconds)
					}
				}
			}
		}
	}
}

// TestShardedMatchesSingle is the shard-vs-whole equivalence property:
// shard dispatch (per-shard search + global merge) must report the exact
// mappings of the single-index pipeline, across shard counts, locate
// modes and device counts, serially and in parallel.
func TestShardedMatchesSingle(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 30_000, 80, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 50}

	single, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		k, rate int
		devices func() []*cl.Device
		exec    cl.ExecMode
	}{
		{"2shards-1dev-serial", 2, 0, func() []*cl.Device { return []*cl.Device{cl.SystemOneCPU()} }, cl.Serial},
		{"3shards-3devs", 3, 0, func() []*cl.Device { return cl.SystemOne().Devices }, cl.Auto},
		{"5shards-3devs-sampled", 5, 32, func() []*cl.Device { return cl.SystemOne().Devices }, cl.Auto},
		{"4shards-2devs", 4, 0, func() []*cl.Device {
			a, b := cl.SystemOneCPU(), cl.SystemOneCPU()
			a.Name, b.Name = "CPU-A", "CPU-B"
			return []*cl.Device{a, b}
		}, cl.Auto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shards := makeShards(ref, tc.k, 256, tc.rate)
			p, err := NewSharded(shards, 256, tc.devices(), Config{Exec: tc.exec})
			if err != nil {
				t.Fatal(err)
			}
			if !p.Sharded() || p.Index() != nil {
				t.Fatal("sharded pipeline misreports its geometry")
			}
			got, err := p.Map(set.Reads, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameMappings(t, want.Mappings, got.Mappings)
			if got.SimSeconds <= 0 || got.EnergyJ <= 0 {
				t.Errorf("accounting empty: %v s, %v J", got.SimSeconds, got.EnergyJ)
			}
		})
	}
}

// TestShardedBestModeMatchesSingle checks the merge's best-stratum
// composition: per-shard best filtering followed by the global best
// re-filter must equal single-index best mapping.
func TestShardedBestModeMatchesSingle(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 30_000, 60, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 50, Best: true}

	single, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewSharded(makeShards(ref, 3, 256, 0), 256, cl.SystemOne().Devices, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, want.Mappings, got.Mappings)
}

// TestShardedUnderFaultsMatchesSingle arms a chaos plan on every device
// of a sharded run: transient retries, allocation degradation and a
// permanent device loss re-dispatching that device's shards must leave
// the merged mappings untouched.
func TestShardedUnderFaultsMatchesSingle(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set, mkDevs, maxLoc := faultWorld(t, 100)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}

	single, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Shard indexes are roughly half the whole index; the faultWorld
	// MaxAlloc clamp still forces several batches per shard.
	devs := mkDevs()
	devs[0].InstallFaults(&cl.FaultPlan{
		FailEnqueues: map[int]cl.Code{2: cl.OutOfResources},
		FailAllocs:   map[int]cl.Code{4: cl.MemObjectAllocationFailure},
	})
	// Device B dies at its third launch: its shard's remaining reads must
	// fail over to device A, which re-loads B's reference slice.
	devs[1].InstallFaults(&cl.FaultPlan{
		FailEnqueues: map[int]cl.Code{3: cl.DeviceNotAvailable},
	})
	p, err := NewSharded(makeShards(ref, 2, 256, 0), 256, devs, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, want.Mappings, got.Mappings)
	f := got.Faults
	if f.Retries < 1 {
		t.Errorf("transient retry not accounted: %+v", f)
	}
	if len(f.FailedDevices) != 1 || f.FailedDevices[0] != "CPU-B" {
		t.Errorf("FailedDevices = %v, want [CPU-B]", f.FailedDevices)
	}
	if f.FailoverReads < 1 {
		t.Errorf("shard failover not accounted: %+v", f)
	}
}

// TestShardedEnvChaosMatchesSingle runs shard dispatch under the ambient
// REPUTE_CL_FAULTS plan the CI chaos job uses.
func TestShardedEnvChaosMatchesSingle(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 30_000, 60, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: 50}
	single, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	t.Setenv("REPUTE_CL_FAULTS", "enq2=oor,alloc3=alloc,throttle2-4=0.5")
	p, err := NewSharded(makeShards(ref, 3, 256, 0), 256, cl.SystemOne().Devices, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, want.Mappings, got.Mappings)
	if !got.Faults.Any() {
		t.Error("chaos plan armed but no faults accounted")
	}
}

// TestShardedOverlapValidation: an overlap too small for the read length
// must be rejected loudly at Map time, not silently lose boundary reads.
func TestShardedOverlapValidation(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 30_000, 5, simulate.ERR012100)
	// Reads are 100 bases; with δ=4 the slices need ≥ 108 bases of margin.
	p, err := NewSharded(makeShards(ref, 2, 64, 0), 64, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Map(set.Reads, mapper.Options{MaxErrors: 4, MaxLocations: 50})
	if err == nil {
		t.Fatal("undersized overlap accepted")
	}
	if !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestShardedCigarFor: CIGAR recovery must work from shard slices with
// global mapping coordinates.
func TestShardedCigarFor(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 30_000, 40, simulate.SRR826460)
	opt := mapper.Options{MaxErrors: 5, MaxLocations: 20}
	p, err := NewSharded(makeShards(ref, 3, 256, 0), 256, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
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
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("nothing mapped")
	}
	if _, err := p.CigarFor(set.Reads[0], mapper.Mapping{Pos: 1 << 30}, 3); err == nil {
		t.Error("absurd position accepted")
	}
}

// TestNewShardedValidation exercises the constructor's geometry checks.
func TestNewShardedValidation(t *testing.T) {
	ref, _ := testWorld(t, 10_000, 1, simulate.ERR012100)
	devs := []*cl.Device{cl.SystemOneCPU()}
	good := makeShards(ref, 2, 128, 0)
	if _, err := NewSharded(nil, 128, devs, Config{}); err == nil {
		t.Error("no shards accepted")
	}
	if _, err := NewSharded(good, 128, devs, Config{Split: []float64{1}}); err == nil {
		t.Error("split accepted for shard dispatch")
	}
	gap := makeShards(ref, 2, 128, 0)
	gap[1].OwnStart += 7 // ownership no longer contiguous
	if _, err := NewSharded(gap, 128, devs, Config{}); err == nil {
		t.Error("ownership gap accepted")
	}
	short := makeShards(ref, 2, 128, 0)
	short[0].SliceEnd += 3 // index length no longer matches the slice
	if _, err := NewSharded(short, 128, devs, Config{}); err == nil {
		t.Error("slice/index length mismatch accepted")
	}
}

// TestEmptyReadSet: no reads is a valid input for any shard count — the
// result is empty and nothing runs, on a device goroutine or otherwise.
func TestEmptyReadSet(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, _ := testWorld(t, 6_000, 1, simulate.ERR012100)
	for _, k := range []int{1, 3} {
		p, err := NewSharded(makeShards(ref, k, 256, 0), 256, cl.SystemOne().Devices, Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Map(nil, mapper.Options{MaxErrors: 3})
		if err != nil {
			t.Fatalf("%d shard(s): %v", k, err)
		}
		if len(res.Mappings) != 0 || res.SimSeconds != 0 || res.Cost != (cl.Cost{}) || len(res.DeviceSeconds) != 0 {
			t.Errorf("%d shard(s): empty read set produced %+v", k, res)
		}
	}
}
