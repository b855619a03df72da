package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/cl"
	"repro/internal/eval"
	"repro/internal/mapper"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// prefilterOpt returns the option pair (off, gatekeeper) for one test
// scenario. MinSeedLen is forced low so the random reference produces
// spurious candidate locations for the filter to reject — at the default
// Smin a 60 kb random genome yields almost no false seeds and the filter
// has nothing to do.
func prefilterOpt(maxErr, maxLoc int) (off, on mapper.Options) {
	off = mapper.Options{
		MaxErrors: maxErr, MaxLocations: maxLoc, MinSeedLen: 8,
		Prefilter: mapper.PrefilterOff,
	}
	on = off
	on.Prefilter = mapper.PrefilterGateKeeper
	return off, on
}

// TestPrefilterEquivalenceSingleDevice is the accuracy-regression gate at
// pipeline level: with the GateKeeper-style pre-alignment filter enabled
// the mapper must produce mappings byte-identical to the unfiltered run,
// in both host execution modes.
func TestPrefilterEquivalenceSingleDevice(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 60_000, 120, simulate.ERR012100)
	offOpt, onOpt := prefilterOpt(3, 100)

	for _, mode := range []cl.ExecMode{cl.Serial, cl.Parallel} {
		pOff, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: mode})
		if err != nil {
			t.Fatal(err)
		}
		off, err := pOff.Map(set.Reads, offOpt)
		if err != nil {
			t.Fatal(err)
		}
		pOn, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: mode})
		if err != nil {
			t.Fatal(err)
		}
		on, err := pOn.Map(set.Reads, onOpt)
		if err != nil {
			t.Fatal(err)
		}
		sameMappings(t, off.Mappings, on.Mappings)
		if err := eval.PrefilterGate(off.Mappings, on.Mappings); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
		if on.SimSeconds <= 0 || on.EnergyJ <= 0 {
			t.Errorf("mode %v: accounting empty: %v s, %v J", mode, on.SimSeconds, on.EnergyJ)
		}
	}
}

// TestPrefilterMetricsAndSpans checks the observability contract: the
// filter is a stage of the one map kernel, so a filtered run enqueues the
// same kernels and allocates the same buffers as an unfiltered one, its
// enqueue spans carry the filter's counters next to verify_words, the
// trace-derived metrics registry surfaces them, and the rejected fraction
// is a real number in (0, 1].
func TestPrefilterMetricsAndSpans(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 60_000, 120, simulate.ERR012100)
	offOpt, onOpt := prefilterOpt(3, 100)

	// run maps under opt and returns the metrics plus, in lane order, the
	// attribute keys of every enqueue span and the size of every buffer.
	run := func(opt mapper.Options) (m trace.Snapshot, enqueues []map[string]bool, allocs []int64) {
		t.Helper()
		rec := trace.NewRecorder()
		p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial, Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Map(set.Reads, opt); err != nil {
			t.Fatal(err)
		}
		if err := rec.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, ev := range rec.Events() {
			switch {
			case strings.HasPrefix(ev.Name, "enqueue:"):
				if ev.Name != "enqueue:REPUTE-map" {
					t.Errorf("prefilter %q launched %s, want only enqueue:REPUTE-map", opt.Prefilter, ev.Name)
				}
				keys := map[string]bool{}
				for _, a := range ev.Attrs {
					keys[a.Key] = true
				}
				enqueues = append(enqueues, keys)
			case ev.Name == "alloc":
				for _, a := range ev.Attrs {
					if a.Key == "bytes" {
						allocs = append(allocs, a.Value().(int64))
					}
				}
			}
		}
		return rec.Metrics(), enqueues, allocs
	}
	m, onEnq, onAllocs := run(onOpt)
	m2, offEnq, offAllocs := run(offOpt)

	if len(onEnq) == 0 || len(onEnq) != len(offEnq) {
		t.Errorf("filtered run enqueued %d kernels, unfiltered %d; want the same, nonzero", len(onEnq), len(offEnq))
	}
	if !slices.Equal(onAllocs, offAllocs) {
		t.Errorf("filtered run allocated %v, unfiltered %v; the filter must add no buffer", onAllocs, offAllocs)
	}
	for i, keys := range onEnq {
		for _, k := range []string{"verify_words", "filter_words", "filtered", "false_accepts"} {
			if !keys[k] {
				t.Errorf("filtered enqueue %d carries no %s attribute", i, k)
			}
		}
	}

	rejected, ok := m.Counters["prefilter_rejected_total"]
	if !ok {
		t.Fatal("prefilter_rejected_total missing from filtered run")
	}
	if rejected <= 0 {
		t.Errorf("prefilter_rejected_total = %d, want > 0 (MinSeedLen=8 must produce junk candidates)", rejected)
	}
	if _, ok := m.Counters["prefilter_false_accepts_total"]; !ok {
		t.Error("prefilter_false_accepts_total missing from filtered run")
	}
	frac, ok := m.Gauges["prefilter_filtered_fraction"]
	if !ok || frac <= 0 || frac > 1 {
		t.Errorf("prefilter_filtered_fraction = %g (present=%t), want in (0,1]", frac, ok)
	}

	// The unfiltered pipeline must not leak any prefilter metric.
	if _, ok := m2.Counters["prefilter_rejected_total"]; ok {
		t.Error("prefilter_rejected_total present in unfiltered run")
	}
	if _, ok := m2.Gauges["prefilter_filtered_fraction"]; ok {
		t.Error("prefilter_filtered_fraction present in unfiltered run")
	}
}

// TestPrefilterEquivalenceSharded runs the gate across the second
// dispatch geometry: a sharded reference over multiple devices, where the
// filter must compose with shard-overlap ownership filtering.
func TestPrefilterEquivalenceSharded(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set := testWorld(t, 60_000, 100, simulate.ERR012100)
	offOpt, onOpt := prefilterOpt(3, 100)

	run := func(opt mapper.Options) [][]mapper.Mapping {
		t.Helper()
		p, err := NewSharded(makeShards(ref, 3, 256, 0), 256, cl.SystemOne().Devices, Config{Exec: cl.Serial})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Map(set.Reads, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Mappings
	}
	off, on := run(offOpt), run(onOpt)
	sameMappings(t, off, on)
	if err := eval.PrefilterGate(off, on); err != nil {
		t.Error(err)
	}
}

// TestPrefilterEquivalenceUnderFaults arms a fault plan (transient launch
// failure, allocation failure forcing a batch halving, permanent device
// loss) against the filtered pipeline: recovery replays and halved
// batches must not change what anything maps to.
func TestPrefilterEquivalenceUnderFaults(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	ref, set, mkDevs, maxLoc := faultWorld(t, 120)
	offOpt, onOpt := prefilterOpt(3, maxLoc)

	baselineP, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := baselineP.Map(set.Reads, offOpt)
	if err != nil {
		t.Fatal(err)
	}

	devs := mkDevs()
	devs[0].InstallFaults(&cl.FaultPlan{
		FailEnqueues: map[int]cl.Code{2: cl.OutOfResources},
		FailAllocs:   map[int]cl.Code{4: cl.MemObjectAllocationFailure},
	})
	devs[1].InstallFaults(&cl.FaultPlan{
		FailEnqueues: map[int]cl.Code{3: cl.DeviceNotAvailable},
	})
	p, err := New(ref, devs, Config{Split: []float64{0.5, 0.5}, Exec: cl.Serial})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Map(set.Reads, onOpt)
	if err != nil {
		t.Fatal(err)
	}
	sameMappings(t, baseline.Mappings, res.Mappings)
	if err := eval.PrefilterGate(baseline.Mappings, res.Mappings); err != nil {
		t.Error(err)
	}
	if !res.Faults.Any() {
		t.Error("fault plan armed but no recovery accounted")
	}
}

// TestPrefilterUnknownValueRejected pins option validation: an
// unrecognised filter name is an error before any mapping work starts.
func TestPrefilterUnknownValueRejected(t *testing.T) {
	ref, set := testWorld(t, 20_000, 4, simulate.ERR012100)
	p, err := New(ref, []*cl.Device{cl.SystemOneCPU()}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Map(set.Reads, mapper.Options{MaxErrors: 2, MaxLocations: 10, Prefilter: "grim"})
	if err == nil || !strings.Contains(err.Error(), "prefilter") {
		t.Fatalf("unknown prefilter accepted: err=%v", err)
	}
}
