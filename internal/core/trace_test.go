package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/cl"
	"repro/internal/mapper"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// TestTraceDeterminismSerialParallel is the tentpole's acceptance test:
// a recorded trace of a 2-device run — including fault recovery — must
// be byte-identical between serial and parallel host execution, and so
// must the metrics snapshot derived from it. Traces are keyed on lane
// ordinals and simulated time, never wall clocks, so the goroutine
// interleaving of the parallel scheduler must be invisible.
func TestTraceDeterminismSerialParallel(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	ref, set, mkDevs, maxLoc := faultWorld(t, 120)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: maxLoc}

	run := func(mode cl.ExecMode) (chrome, metrics []byte, rec *trace.Recorder) {
		rec = trace.NewRecorder()
		devs := mkDevs()
		devs[0].InstallFaults(&cl.FaultPlan{
			FailEnqueues: map[int]cl.Code{2: cl.OutOfResources},
			FailAllocs:   map[int]cl.Code{4: cl.MemObjectAllocationFailure},
			Throttles:    []cl.Throttle{{From: 3, To: 5, Factor: 0.5}},
		})
		devs[1].InstallFaults(&cl.FaultPlan{
			FailEnqueues: map[int]cl.Code{3: cl.DeviceNotAvailable},
		})
		p, err := New(ref, devs, Config{Split: []float64{0.5, 0.5}, Exec: mode, Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Map(set.Reads, opt); err != nil {
			t.Fatal(err)
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("%v trace invalid: %v", mode, err)
		}
		var cbuf, mbuf bytes.Buffer
		if err := trace.WriteChromeTrace(&cbuf, rec); err != nil {
			t.Fatal(err)
		}
		if err := rec.Metrics().WriteJSON(&mbuf); err != nil {
			t.Fatal(err)
		}
		return cbuf.Bytes(), mbuf.Bytes(), rec
	}

	serialTrace, serialMetrics, rec := run(cl.Serial)
	parallelTrace, parallelMetrics, _ := run(cl.Auto)

	if !bytes.Equal(serialTrace, parallelTrace) {
		t.Errorf("serial and parallel Chrome traces differ (%d vs %d bytes)",
			len(serialTrace), len(parallelTrace))
	}
	if !bytes.Equal(serialMetrics, parallelMetrics) {
		t.Errorf("serial and parallel metrics snapshots differ:\n%s\n---\n%s",
			serialMetrics, parallelMetrics)
	}

	lanes := rec.Lanes()
	wantLanes := map[string]bool{"CPU-A": false, "CPU-B": false, "host": false}
	for _, l := range lanes {
		if _, ok := wantLanes[l]; ok {
			wantLanes[l] = true
		}
	}
	for l, seen := range wantLanes {
		if !seen {
			t.Errorf("lane %q missing from trace (have %v)", l, lanes)
		}
	}

	// The scripted faults must be visible as events and derived metrics.
	seen := map[string]int{}
	for _, ev := range rec.Events() {
		seen[ev.Name]++
	}
	for _, name := range []string{"map", "round 1", "round 2", "enqueue-fault",
		"retry", "batch-halved", "device-failed", "failover", "alloc", "free", "penalty"} {
		if seen[name] == 0 {
			t.Errorf("expected %q events in faulted trace", name)
		}
	}
	m := rec.Metrics()
	if m.Counters["faults_total"] == 0 || m.Counters["retries_total"] == 0 ||
		m.Counters["failovers_total"] == 0 {
		t.Errorf("fault metrics not derived: %+v", m.Counters)
	}
	if m.Counters["candidates_total"] == 0 || m.Counters["verified_total"] == 0 {
		t.Errorf("filtration/verification tallies missing: %+v", m.Counters)
	}
	// One observation per mapped read: recovery re-runs no work item.
	if m.Histograms["item_ops"].Count != int64(len(set.Reads)) {
		t.Errorf("item_ops count = %d, want %d",
			m.Histograms["item_ops"].Count, len(set.Reads))
	}
}

// TestNoopTracerZeroCostPipeline is the pipeline-level half of the
// benchmark guard: tracing observes and never charges, so a run with a
// recorder installed must leave every simulated result bit-identical to
// a run with the nil tracer (tracing off).
func TestNoopTracerZeroCostPipeline(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 20_000, 40, simulate.ERR012100)
	opt := mapper.Options{MaxErrors: 3, MaxLocations: 50}

	run := func(tr *trace.Recorder) *mapper.Result {
		p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Map(set.Reads, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(nil)
	on := run(trace.NewRecorder())
	if off.SimSeconds != on.SimSeconds || off.EnergyJ != on.EnergyJ || off.Cost != on.Cost {
		t.Errorf("tracing changed simulated results:\noff %+v/%v/%v\non  %+v/%v/%v",
			off.Cost, off.SimSeconds, off.EnergyJ, on.Cost, on.SimSeconds, on.EnergyJ)
	}
	sameMappings(t, off.Mappings, on.Mappings)
}
