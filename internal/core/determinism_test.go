package core

import (
	"runtime"
	"testing"

	"repro/internal/cl"
	"repro/internal/mapper"
	"repro/internal/simulate"
)

// TestSerialParallelDeterminism is the guard that keeps the performance
// model trustworthy: the work-group scheduler may run work items on any
// number of host workers, but mappings, simulated seconds, energy and
// cost must be bit-identical to single-goroutine execution.
func TestSerialParallelDeterminism(t *testing.T) {
	// Force a real worker pool even on single-core CI machines.
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	ref, set := testWorld(t, 40_000, 100, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 4, MaxLocations: 100}

	for _, tc := range []struct {
		name  string
		devs  func() []*cl.Device
		split []float64
	}{
		{"single-device", func() []*cl.Device { return []*cl.Device{cl.SystemOneCPU()} }, nil},
		{"multi-device", func() []*cl.Device { return cl.SystemOne().Devices }, []float64{0.5, 0.25, 0.25}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(mode cl.ExecMode) *mapper.Result {
				p, err := New(ref, tc.devs(), Config{Split: tc.split, Exec: mode})
				if err != nil {
					t.Fatal(err)
				}
				res, err := p.Map(set.Reads, opt)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial := run(cl.Serial)
			parallel := run(cl.Auto)

			if serial.SimSeconds != parallel.SimSeconds {
				t.Errorf("SimSeconds differ: serial %v parallel %v",
					serial.SimSeconds, parallel.SimSeconds)
			}
			if serial.EnergyJ != parallel.EnergyJ {
				t.Errorf("EnergyJ differs: serial %v parallel %v",
					serial.EnergyJ, parallel.EnergyJ)
			}
			if serial.Cost != parallel.Cost {
				t.Errorf("Cost differs:\nserial   %+v\nparallel %+v",
					serial.Cost, parallel.Cost)
			}
			for name, s := range serial.DeviceSeconds {
				if p := parallel.DeviceSeconds[name]; p != s {
					t.Errorf("DeviceSeconds[%s] differ: serial %v parallel %v", name, s, p)
				}
			}
			if len(serial.Mappings) != len(parallel.Mappings) {
				t.Fatalf("mapping counts differ: %d vs %d",
					len(serial.Mappings), len(parallel.Mappings))
			}
			for i := range serial.Mappings {
				a, b := serial.Mappings[i], parallel.Mappings[i]
				if len(a) != len(b) {
					t.Fatalf("read %d: %d vs %d mappings", i, len(a), len(b))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("read %d mapping %d differs: %+v vs %+v", i, j, a[j], b[j])
					}
				}
			}
		})
	}
}
