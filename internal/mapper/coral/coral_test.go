package coral

import (
	"testing"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/seed"
	"repro/internal/simulate"
)

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
