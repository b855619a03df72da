package core

import (
	"testing"

	"repro/internal/cl"
	"repro/internal/mapper"
	"repro/internal/trace"
)

// tripBreaker trips dev's breaker open, the way a lost device would
// have.
func tripBreaker(t *testing.T, dev *cl.Device) *cl.Breaker {
	t.Helper()
	b := dev.Breaker()
	if st, changed := b.RecordFailure(&cl.Error{
		Code: cl.DeviceNotAvailable, Op: "enqueue", Device: dev.Name,
	}); st != cl.BreakerOpen || !changed {
		t.Fatalf("tripping breaker on %s: state %v changed %v", dev.Name, st, changed)
	}
	return b
}

// failCanary trips dev's breaker and fails its canary, leaving it open
// with a cooldown of two decisions, none of them taken yet.
func failCanary(t *testing.T, dev *cl.Device) *cl.Breaker {
	t.Helper()
	b := tripBreaker(t, dev)
	b.Skipped()
	b.RecordFailure(&cl.Error{Code: cl.DeviceNotAvailable, Op: "enqueue", Device: dev.Name})
	return b
}

func countInstants(rec *trace.Recorder, name string) int {
	n := 0
	for _, ev := range rec.Events() {
		if ev.Name == name {
			n++
		}
	}
	return n
}

// TestWatchdogTripsBreakerAndFailsOver: a sustained throttle turns the
// third watchdog kill into a breaker trip (score 3); the in-place retry
// tier stands down before its last retry and the device's share fails
// over to its partner with the mappings intact.
func TestWatchdogTripsBreakerAndFailsOver(t *testing.T) {
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
	// Every enqueue in the window overruns: kill → retry → kill → retry →
	// kill → breaker opens at score 3 → no third in-place retry, CPU-A
	// fails over.
	devs[0].InstallFaults(&cl.FaultPlan{
		Throttles: []cl.Throttle{{From: 1, To: 8, Factor: 0.1}},
	})
	rec := trace.NewRecorder()
	p, err := New(ref, devs, Config{Split: []float64{0.5, 0.5}, Exec: cl.Serial, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, baseline.Mappings, res.Mappings)
	if res.Faults.WatchdogFires != 3 {
		t.Errorf("WatchdogFires = %d, want 3 (kill, two retried kills)", res.Faults.WatchdogFires)
	}
	if res.Faults.Retries != 2 {
		t.Errorf("Retries = %d, want 2: the trip must stop the third in-place retry", res.Faults.Retries)
	}
	if len(res.Faults.FailedDevices) != 1 || res.Faults.FailedDevices[0] != "CPU-A" {
		t.Errorf("FailedDevices = %v, want [CPU-A]", res.Faults.FailedDevices)
	}
	if res.Faults.FailoverReads < 1 {
		t.Errorf("no failover accounted: %+v", res.Faults)
	}
	if got := devs[0].BreakerState(); got != cl.BreakerOpen {
		t.Errorf("breaker after threshold trip = %v, want open", got)
	}
	if n := countInstants(rec, "breaker-open"); n != 1 {
		t.Errorf("breaker-open instants = %d, want 1", n)
	}
}

// TestShardedQuarantineMatchesSingle extends the half-open canary to the
// sharded geometry: the device whose breaker is open at Map start runs
// its round-robin shards as the canary, and the merged mappings equal
// the single-index run.
func TestShardedQuarantineMatchesSingle(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set, mkDevs, maxLoc := faultWorld(t, 80)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}

	single, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	devs := mkDevs()
	brk := tripBreaker(t, devs[1])
	p, err := NewSharded(makeShards(ref, 3, 256, 0), 256, devs, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, want.Mappings, got.Mappings)
	if got.DeviceSeconds["CPU-B"] <= 0 {
		t.Errorf("half-open CPU-B never ran in sharded dispatch: %v", got.DeviceSeconds)
	}
	if st := brk.State(); st != cl.BreakerClosed {
		t.Errorf("breaker after clean sharded canary = %v, want closed", st)
	}
}

// mapWithOpenBreaker maps the fault world on two CPUs whose second
// device's breaker is open when Map starts, and returns a single-device
// fault-free baseline next to the result, the breaker and the trace.
func mapWithOpenBreaker(t *testing.T) (baseline, res *mapper.Result, brk *cl.Breaker, rec *trace.Recorder) {
	t.Helper()
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set, mkDevs, maxLoc := faultWorld(t, 80)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}

	baselineP, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err = baselineP.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	devs := mkDevs()
	brk = tripBreaker(t, devs[1])
	rec = trace.NewRecorder()
	p, err := New(ref, devs, Config{Split: []float64{0.5, 0.5}, Exec: cl.Serial, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err = p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	return baseline, res, brk, rec
}

// TestMapQuarantinesOpenBreaker: a breaker open when Map starts is
// passed over without a device failure or a quarantine skip. A first
// trip's cooldown is one decision, so that pass-over is the breaker's
// half-open step, and the mappings match a fault-free baseline.
func TestMapQuarantinesOpenBreaker(t *testing.T) {
	baseline, res, _, rec := mapWithOpenBreaker(t)
	sameMappings(t, baseline.Mappings, res.Mappings)
	if len(res.Faults.FailedDevices) != 0 {
		t.Errorf("open breaker recorded as device failure: %v", res.Faults.FailedDevices)
	}
	if n := countInstants(rec, "quarantine-skip"); n != 0 {
		t.Errorf("quarantine-skip instants = %d, want 0", n)
	}
	if n := countInstants(rec, "breaker-half-open"); n != 1 {
		t.Errorf("breaker-half-open instants = %d, want 1", n)
	}
}

// TestHalfOpenCanaryReadmission: the device whose breaker Map half-opened
// is not quarantined for the run. Its first operation is the canary, a
// clean share re-closes the breaker, and the mappings match a fault-free
// baseline.
func TestHalfOpenCanaryReadmission(t *testing.T) {
	baseline, res, brk, rec := mapWithOpenBreaker(t)
	sameMappings(t, baseline.Mappings, res.Mappings)
	if res.DeviceSeconds["CPU-B"] <= 0 {
		t.Errorf("half-open CPU-B never ran its canary share: %v", res.DeviceSeconds)
	}
	if got := brk.State(); got != cl.BreakerClosed {
		t.Errorf("breaker after clean canary = %v, want closed", got)
	}
	if got := brk.Readmits(); got != 1 {
		t.Errorf("Readmits = %d, want 1", got)
	}
	if n := countInstants(rec, "breaker-closed"); n != 1 {
		t.Errorf("breaker-closed instants = %d, want 1", n)
	}
}

// TestMapSitsOutCooldown: a device whose canary failed sits out the
// doubled cooldown. The first Map passes it over, placing its share on
// its partner with no failure or failover; the second half-opens it, and
// its clean canary readmits it. Both match a fault-free baseline.
func TestMapSitsOutCooldown(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set, mkDevs, maxLoc := faultWorld(t, 80)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}
	single, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := single.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	devs := mkDevs()
	brk := failCanary(t, devs[1])
	p, err := New(ref, devs, Config{Split: []float64{0.5, 0.5}, Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	for call, want := range []cl.BreakerState{cl.BreakerOpen, cl.BreakerClosed} {
		res, err := p.Map(set.Reads, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameMappings(t, baseline.Mappings, res.Mappings)
		if ran := res.DeviceSeconds["CPU-B"] > 0; ran != (call == 1) || res.Faults.Any() {
			t.Errorf("call %d: CPU-B ran %v, faults %+v", call+1, ran, res.Faults)
		}
		if st := brk.State(); st != want {
			t.Errorf("call %d: breaker %v, want %v", call+1, st, want)
		}
	}
}

// TestMapAdmitsOpenDeviceAlone: a one-device pipeline whose device is
// open mid-cooldown still maps — the call half-opens it at once, since
// no other device can take the reads — and the clean canary readmits it.
func TestMapAdmitsOpenDeviceAlone(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set, _, maxLoc := faultWorld(t, 80)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}
	single, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := single.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}

	dev := cl.SystemOneCPU()
	brk := failCanary(t, dev)
	p, err := New(ref, []*cl.Device{dev}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Map(set.Reads, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, baseline.Mappings, res.Mappings)
	if st := brk.State(); st != cl.BreakerClosed {
		t.Errorf("breaker after the forced canary = %v, want closed", st)
	}
}
