package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cl"
	"repro/internal/mapper"
	"repro/internal/simulate"
)

// faultWorld builds a reference, a read set and two identically-powered
// CPU devices whose MaxAlloc is clamped so each 60-read share needs
// several batches (~16 reads per batch) — without multiple enqueues and
// allocations per device there would be no ordinals for a FaultPlan to
// hit. The returned MaxLocations must be used for the run: the clamp
// works by sizing the static output slots against the index footprint.
func faultWorld(t *testing.T, nReads int) (ref []byte, set simulate.ReadSet, mkDevs func() []*cl.Device, maxLoc int) {
	t.Helper()
	ref, set = testWorld(t, 30_000, nReads, simulate.ERR012100)
	probe, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ixBytes := probe.Index().SizeBytes()
	maxLoc = int(ixBytes / 128) // => batch ≈ MaxAlloc/(8·maxLoc) ≈ 16 reads
	mkDevs = func() []*cl.Device {
		a := cl.SystemOneCPU()
		a.Name = "CPU-A"
		a.MaxAlloc = ixBytes
		b := cl.SystemOneCPU()
		b.Name = "CPU-B"
		b.MaxAlloc = ixBytes
		return []*cl.Device{a, b}
	}
	return ref, set, mkDevs, maxLoc
}

func sameMappings(t *testing.T, want, got [][]mapper.Mapping) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("mapping counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("read %d: %d vs %d mappings", i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("read %d mapping %d differs: %+v vs %+v",
					i, j, want[i][j], got[i][j])
			}
		}
	}
}

// TestMapRecoversFromFaultPlan is the acceptance scenario of the fault
// tolerance layer: across a two-device split, device A suffers a
// transient launch failure and an injected allocation failure, device B
// is lost permanently mid-run — and Map still returns mappings identical
// to a fault-free serial single-device run, with the recovery visible
// only in Result.Faults.
func TestMapRecoversFromFaultPlan(t *testing.T) {
	// The scenario scripts its plans exactly; neutralise any ambient
	// chaos plan (CI's REPUTE_CL_FAULTS run) so the baseline is clean.
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set, mkDevs, maxLoc := faultWorld(t, 120)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}

	baselineP, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := baselineP.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Faults.Any() {
		t.Fatalf("fault-free baseline reports recovery: %+v", baseline.Faults)
	}

	devs := mkDevs()
	// Device A, per-ordinal: alloc1 = index, then (in, out, enqueue) per
	// batch. alloc4 is batch 2's input buffer — an injected transient
	// allocation failure that halves the batch; enq2 is the next launch —
	// a transient failure retried in place.
	devs[0].InstallFaults(&cl.FaultPlan{
		FailEnqueues: map[int]cl.Code{2: cl.OutOfResources},
		FailAllocs:   map[int]cl.Code{4: cl.MemObjectAllocationFailure},
	})
	// Device B dies for good at its third launch, mid-share.
	devs[1].InstallFaults(&cl.FaultPlan{
		FailEnqueues: map[int]cl.Code{3: cl.DeviceNotAvailable},
	})
	p, err := New(ref, devs, Config{Split: []float64{0.5, 0.5}, Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	sameMappings(t, baseline.Mappings, res.Mappings)
	f := res.Faults
	if f.Retries < 1 || f.BackoffSimSec <= 0 {
		t.Errorf("transient retry not accounted: %+v", f)
	}
	if f.DegradedBatches < 1 {
		t.Errorf("batch halving not accounted: %+v", f)
	}
	if f.FailoverReads < 1 {
		t.Errorf("failover not accounted: %+v", f)
	}
	if len(f.FailedDevices) != 1 || f.FailedDevices[0] != "CPU-B" {
		t.Errorf("FailedDevices = %v, want [CPU-B]", f.FailedDevices)
	}
	if res.DeviceSeconds["CPU-A"] <= 0 || res.DeviceSeconds["CPU-B"] <= 0 {
		t.Errorf("DeviceSeconds = %v, want both devices busy", res.DeviceSeconds)
	}
	if res.SimSeconds <= 0 || res.EnergyJ <= 0 {
		t.Errorf("SimSeconds/EnergyJ = %v/%v", res.SimSeconds, res.EnergyJ)
	}
}

// TestFaultDeterminismSerialParallel extends the serial/parallel
// bit-identity guarantee to runs with an active FaultPlan: injection is
// schedule-based, so both execution modes observe the same faults and
// produce identical results and recovery accounting.
func TestFaultDeterminismSerialParallel(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	ref, set, mkDevs, maxLoc := faultWorld(t, 120)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}

	run := func(mode cl.ExecMode) *mapper.Result {
		devs := mkDevs() // fresh devices: fresh fault ordinals per run
		devs[0].InstallFaults(&cl.FaultPlan{
			FailEnqueues: map[int]cl.Code{2: cl.OutOfResources},
			FailAllocs:   map[int]cl.Code{4: cl.MemObjectAllocationFailure},
			Throttles:    []cl.Throttle{{From: 3, To: 5, Factor: 0.5}},
		})
		devs[1].InstallFaults(&cl.FaultPlan{
			FailEnqueues: map[int]cl.Code{3: cl.DeviceNotAvailable},
		})
		p, err := New(ref, devs, Config{Split: []float64{0.5, 0.5}, Exec: mode})
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
	parallel := run(cl.Parallel)

	if serial.SimSeconds != parallel.SimSeconds {
		t.Errorf("SimSeconds differ: serial %v parallel %v",
			serial.SimSeconds, parallel.SimSeconds)
	}
	if serial.EnergyJ != parallel.EnergyJ {
		t.Errorf("EnergyJ differs: serial %v parallel %v",
			serial.EnergyJ, parallel.EnergyJ)
	}
	if serial.Cost != parallel.Cost {
		t.Errorf("Cost differs:\nserial   %+v\nparallel %+v", serial.Cost, parallel.Cost)
	}
	if !reflect.DeepEqual(serial.Faults, parallel.Faults) {
		t.Errorf("FaultStats differ:\nserial   %+v\nparallel %+v",
			serial.Faults, parallel.Faults)
	}
	if !serial.Faults.Any() {
		t.Error("fault plan injected nothing — the comparison is vacuous")
	}
	sameMappings(t, serial.Mappings, parallel.Mappings)
}

// TestFailoverMapsAllReads kills one of two devices on its very first
// launch: its entire share must fail over and every read still map.
func TestFailoverMapsAllReads(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set, mkDevs, maxLoc := faultWorld(t, 80)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}

	baselineP, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := baselineP.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	devs := mkDevs()
	devs[1].InstallFaults(&cl.FaultPlan{
		FailEnqueues: map[int]cl.Code{1: cl.DeviceNotAvailable},
	})
	p, err := New(ref, devs, Config{Split: []float64{0.5, 0.5}, Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, baseline.Mappings, res.Mappings)
	if res.Faults.FailoverReads != 40 {
		t.Errorf("FailoverReads = %d, want 40 (device B's whole share)",
			res.Faults.FailoverReads)
	}
	if len(res.Faults.FailedDevices) != 1 || res.Faults.FailedDevices[0] != "CPU-B" {
		t.Errorf("FailedDevices = %v, want [CPU-B]", res.Faults.FailedDevices)
	}
}

// TestAllDevicesFailedSurfacesError: when every device is lost the error
// names the devices and their causes instead of hanging or mis-mapping.
func TestAllDevicesFailedSurfacesError(t *testing.T) {
	ref, set, mkDevs, maxLoc := faultWorld(t, 40)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}
	devs := mkDevs()
	for _, d := range devs {
		d.InstallFaults(&cl.FaultPlan{
			FailEnqueues: map[int]cl.Code{1: cl.DeviceNotAvailable},
		})
	}
	p, err := New(ref, devs, Config{Split: []float64{0.5, 0.5}, Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Map(set.Reads, opt)
	if err == nil {
		t.Fatal("Map succeeded with every device lost")
	}
	for _, want := range []string{"no device completed", "CPU-A", "CPU-B", "CL_DEVICE_NOT_AVAILABLE"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}

// TestEnvFaultPlanAutoInstall: setting REPUTE_CL_FAULTS turns a plain
// pipeline run into a chaos run — the plan is armed on every device
// without an explicit one and the run still succeeds via recovery.
func TestEnvFaultPlanAutoInstall(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "enq1=oor")
	ref, set := testWorld(t, 20_000, 30, simulate.ERR012100)
	dev := cl.SystemOneCPU()
	p, err := New(ref, []*cl.Device{dev}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Map(set.Reads, mapper.Options{MaxErrors: 3, MaxLocations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !dev.FaultsInstalled() {
		t.Error("env plan was not armed on the device")
	}
	if res.Faults.Retries < 1 {
		t.Errorf("injected enq1=oor was not retried: %+v", res.Faults)
	}
}
