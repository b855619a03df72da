package cl

import (
	"testing"

	"repro/internal/trace"
)

// traceKernel is a small charging kernel for the tracer tests.
func traceKernel() *Kernel {
	return &Kernel{
		Name: "trace-test",
		Body: func(wi *WorkItem, _ any) {
			wi.Charge(Cost{DPCells: int64(wi.Global + 1), Items: 1})
		},
	}
}

// TestNoopTracerZeroCost is the tier-1 benchmark guard at the queue
// level: tracing observes and never charges, so the simulated results —
// cost, busy seconds, energy — with a recorder installed must be
// bit-identical to a run with the nil tracer (tracing off).
func TestNoopTracerZeroCost(t *testing.T) {
	run := func(tr *trace.Recorder) (float64, Cost, float64) {
		ctx := NewContext()
		dev := testDevice()
		q := NewQueue(dev)
		q.SetTracer(tr)
		ctx.SetTracer(tr)
		b, err := ctx.AllocBuffer(dev, 4096)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Free()
		for i := 0; i < 5; i++ {
			if _, err := q.EnqueueNDRange(traceKernel(), 100); err != nil {
				t.Fatal(err)
			}
		}
		q.ChargePenalty(0.25)
		busy, cost := q.Finish()
		return busy, cost, q.EnergyJ()
	}
	offBusy, offCost, offEnergy := run(nil)
	onBusy, onCost, onEnergy := run(trace.NewRecorder())
	if offBusy != onBusy || offCost != onCost || offEnergy != onEnergy {
		t.Errorf("tracing changed results: busy %v/%v cost %+v/%+v energy %v/%v",
			offBusy, onBusy, offCost, onCost, offEnergy, onEnergy)
	}
}

func TestQueueTraceSpans(t *testing.T) {
	rec := trace.NewRecorder()
	ctx := NewContext()
	dev := testDevice()
	dev.InstallFaults(&FaultPlan{
		FailEnqueues: map[int]Code{2: OutOfResources},
		FailAllocs:   map[int]Code{2: MemObjectAllocationFailure},
		Throttles:    []Throttle{{From: 3, To: 3, Factor: 0.5}},
	})
	defer dev.InstallFaults(nil)
	q := NewQueue(dev)
	q.SetTracer(rec)
	ctx.SetTracer(rec)

	b, err := ctx.AllocBuffer(dev, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.AllocBuffer(dev, 1024); err == nil {
		t.Fatal("injected alloc fault did not fire")
	}
	if _, err := q.EnqueueNDRange(traceKernel(), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRange(traceKernel(), 10); err == nil {
		t.Fatal("injected enqueue fault did not fire")
	}
	if _, err := q.EnqueueNDRange(traceKernel(), 10); err != nil {
		t.Fatal(err)
	}
	q.ChargePenalty(0.5)
	b.Free()

	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	throttled := false
	for _, ev := range rec.Events() {
		if ev.Lane != dev.Name {
			t.Errorf("event %s on lane %q, want %q", ev.Name, ev.Lane, dev.Name)
		}
		seen[ev.Name]++
		for _, a := range ev.Attrs {
			if a.Key == "throttle" {
				throttled = true
			}
		}
	}
	for name, want := range map[string]int{
		"alloc": 1, "alloc-fault": 1, "free": 1,
		"enqueue:trace-test": 2, "enqueue-fault": 1, "penalty": 1,
	} {
		if seen[name] != want {
			t.Errorf("%s events = %d, want %d (all: %v)", name, seen[name], want, seen)
		}
	}
	if !throttled {
		t.Error("throttled enqueue span missing throttle attribute")
	}

	m := rec.Metrics()
	if m.Counters["faults_total"] != 2 {
		t.Errorf("faults_total = %d, want 2", m.Counters["faults_total"])
	}
	if m.Counters["enqueues_total/"+dev.Name] != 2 {
		t.Errorf("enqueues_total = %d, want 2", m.Counters["enqueues_total/"+dev.Name])
	}
	busy, _ := q.Finish()
	if got := m.Gauges["device_busy_seconds/"+dev.Name]; got != busy {
		t.Errorf("device_busy_seconds = %g, want %g", got, busy)
	}
}

// TestQueueTraceOrigin checks the origin offset that lets two fresh
// queues on one device extend one timeline (successive batches of one
// stream).
func TestQueueTraceOrigin(t *testing.T) {
	rec := trace.NewRecorder()
	dev := testDevice()
	q := NewQueue(dev)
	q.SetTracer(rec)
	q.SetTraceOrigin(100)
	if _, err := q.EnqueueNDRange(traceKernel(), 4); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if len(evs) != 1 || evs[0].Start != 100 {
		t.Fatalf("span start = %+v, want start 100", evs)
	}
}

func benchEnqueue(b *testing.B, tr *trace.Recorder) {
	dev := testDevice()
	q := NewQueue(dev)
	q.SetTracer(tr)
	q.SetExecMode(Serial)
	k := traceKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.EnqueueNDRange(k, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnqueueNoTracer is the tracing-off hot path (one nil check per
// hook); BenchmarkEnqueueRecorder is the same enqueue with spans recorded.
func BenchmarkEnqueueNoTracer(b *testing.B) { benchEnqueue(b, nil) }
func BenchmarkEnqueueRecorder(b *testing.B) { benchEnqueue(b, trace.NewRecorder()) }
