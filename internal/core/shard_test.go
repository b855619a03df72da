package core

import (
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
