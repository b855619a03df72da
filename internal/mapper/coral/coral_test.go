package coral

import (
	"math/rand"
	"testing"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/seed"
	"repro/internal/simulate"
)

func TestNewAndMap(t *testing.T) {
	ref := simulate.Reference(simulate.Chr21Like(40_000, 1))
	set, err := simulate.Reads(ref, 60, simulate.ERR012100, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "CORAL" {
		t.Errorf("default name = %q", m.Name())
	}
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}
	res, err := m.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	eligible := 0
	for i, o := range set.Origins {
		if int(o.Edits) > opt.MaxErrors {
			continue
		}
		eligible++
		for _, mp := range res.Mappings[i] {
			if mp.Strand == o.Strand && abs32(mp.Pos-o.Pos) <= 4 {
				found++
				break
			}
		}
	}
	if found < eligible*98/100 {
		t.Errorf("CORAL sensitivity %d/%d", found, eligible)
	}
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}

func TestNamedVariantsAndSplit(t *testing.T) {
	ref := simulate.Reference(simulate.Chr21Like(30_000, 2))
	m, err := New(ref, cl.SystemOne().Devices, []float64{0.5, 0.25, 0.25}, "CORAL-all")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "CORAL-all" {
		t.Errorf("name = %q", m.Name())
	}
	set, err := simulate.Reads(ref, 40, simulate.ERR012100, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Map(set.Reads, mapper.Options{MaxErrors: 3, MaxLocations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeviceSeconds) != 3 {
		t.Errorf("devices used = %d want 3", len(res.DeviceSeconds))
	}
}

func TestNewFromIndexShares(t *testing.T) {
	ref := simulate.Reference(simulate.Chr21Like(20_000, 3))
	base, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := core.NewFromIndex(base.Index(), []*cl.Device{cl.SystemOneCPU()},
		core.Config{Name: "CORAL-shared", Selector: seed.CORAL{}})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Index() != base.Index() {
		t.Error("index not shared")
	}
	rng := rand.New(rand.NewSource(1))
	_ = rng
	set, err := simulate.Reads(ref, 10, simulate.ERR012100, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := base.Map(set.Reads, mapper.Options{MaxErrors: 3, MaxLocations: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m2.Map(set.Reads, mapper.Options{MaxErrors: 3, MaxLocations: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Mappings {
		if len(a.Mappings[i]) != len(b.Mappings[i]) {
			t.Fatalf("read %d differs across shared-index mappers", i)
		}
	}
}
