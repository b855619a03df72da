package cl

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// forceWorkers raises GOMAXPROCS so the work-group scheduler spins up a
// real worker pool even on single-core CI machines; the race detector
// tracks happens-before regardless of physical parallelism.
func forceWorkers(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// skewKernel charges a pseudo-random, index-dependent cost so schedule
// differences would surface in any non-commutative accounting.
func skewKernel(out []int64) *Kernel {
	return &Kernel{Name: "skew", Body: func(wi *WorkItem, _ any) {
		h := int64(wi.Global)*2654435761 + 12345
		c := Cost{
			FMSteps:     h % 97,
			DPCells:     h % 31,
			VerifyWords: h % 13,
			Items:       1,
		}
		wi.Charge(c)
		if out != nil {
			out[wi.Global] = h % 97
		}
	}}
}

func TestParallelMatchesSerialBitIdentical(t *testing.T) {
	forceWorkers(t, 8)
	const n = 10_000
	dev := testDevice()

	qs := NewQueue(dev)
	qs.SetExecMode(Serial)
	outS := make([]int64, n)
	evS, err := qs.EnqueueNDRange(skewKernel(outS), n)
	if err != nil {
		t.Fatal(err)
	}

	qp := NewQueue(dev)
	qp.SetExecMode(Auto)
	outP := make([]int64, n)
	evP, err := qp.EnqueueNDRange(skewKernel(outP), n)
	if err != nil {
		t.Fatal(err)
	}

	if evS.Cost != evP.Cost {
		t.Errorf("cost differs: serial %+v parallel %+v", evS.Cost, evP.Cost)
	}
	if evS.SimSeconds != evP.SimSeconds {
		t.Errorf("sim seconds differ: %v vs %v", evS.SimSeconds, evP.SimSeconds)
	}
	if qs.EnergyJ() != qp.EnergyJ() {
		t.Errorf("energy differs: %v vs %v", qs.EnergyJ(), qp.EnergyJ())
	}
	for i := range outS {
		if outS[i] != outP[i] {
			t.Fatalf("output slot %d differs: %d vs %d", i, outS[i], outP[i])
		}
	}
}

func TestNewStatePerWorkerIsolation(t *testing.T) {
	// Each worker must receive its own state instance; items on the same
	// worker share it. A shared accumulator inside the state would race
	// (caught by -race) and double-count (caught here).
	forceWorkers(t, 8)
	var instances atomic.Int64
	type scratch struct{ items int64 }
	k := &Kernel{
		Name:     "stateful",
		NewState: func() any { instances.Add(1); return &scratch{} },
		Body: func(wi *WorkItem, state any) {
			st := state.(*scratch)
			st.items++
			wi.Charge(Cost{Items: 1})
		},
	}
	q := NewQueue(testDevice())
	q.SetExecMode(Auto)
	const n = 5000
	ev, err := q.EnqueueNDRange(k, n)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cost.Items != n {
		t.Errorf("items = %d want %d", ev.Cost.Items, n)
	}
	got := instances.Load()
	groups := (n + workGroupSize - 1) / workGroupSize
	maxWorkers := int64(runtime.GOMAXPROCS(0))
	if int64(groups) < maxWorkers {
		maxWorkers = int64(groups)
	}
	if got < 1 || got > maxWorkers {
		t.Errorf("NewState called %d times, want 1..%d", got, maxWorkers)
	}
}

func TestSerialModeCreatesOneState(t *testing.T) {
	var instances atomic.Int64
	k := &Kernel{
		Name:     "stateful",
		NewState: func() any { instances.Add(1); return new(int) },
		Body:     func(wi *WorkItem, state any) { *state.(*int)++ },
	}
	q := NewQueue(testDevice())
	q.SetExecMode(Serial)
	if _, err := q.EnqueueNDRange(k, 1000); err != nil {
		t.Fatal(err)
	}
	if got := instances.Load(); got != 1 {
		t.Errorf("serial NewState called %d times want 1", got)
	}
}

func TestParallelPanicSurfacesAsSingleError(t *testing.T) {
	forceWorkers(t, 8)
	for _, mode := range []ExecMode{Serial, Auto} {
		q := NewQueue(testDevice())
		q.SetExecMode(mode)
		k := &Kernel{Name: "boom", Body: func(wi *WorkItem, _ any) {
			if wi.Global%1000 == 999 {
				panic("kernel fault")
			}
		}}
		_, err := q.EnqueueNDRange(k, 10_000)
		if err == nil {
			t.Fatalf("%v: panicking kernel returned no error", mode)
		}
		if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kernel fault") {
			t.Errorf("%v: unhelpful launch error: %v", mode, err)
		}
		// The queue must stay usable and record no event for the failed launch.
		if busy, _ := q.Finish(); busy != 0 {
			t.Errorf("%v: failed launch recorded busy time %v", mode, busy)
		}
		ok := &Kernel{Name: "ok", Body: func(wi *WorkItem, _ any) { wi.Charge(Cost{Items: 1}) }}
		if _, err := q.EnqueueNDRange(ok, 10); err != nil {
			t.Errorf("%v: queue unusable after failed launch: %v", mode, err)
		}
	}
}

func TestFinishTotalsTrackAppendsAndReset(t *testing.T) {
	// Finish/EnergyJ are O(1) running totals now; they must stay exact
	// across many enqueues and clear on Reset.
	dev := testDevice()
	q := NewQueue(dev)
	k := &Kernel{Name: "w", Body: func(wi *WorkItem, _ any) { wi.Charge(Cost{FMSteps: 3, Items: 1}) }}
	var wantBusy float64
	var wantCost Cost
	for i := 0; i < 50; i++ {
		ev, err := q.EnqueueNDRange(k, 17)
		if err != nil {
			t.Fatal(err)
		}
		wantBusy += ev.SimSeconds
		wantCost.Add(ev.Cost)
		busy, total := q.Finish()
		if busy != wantBusy || total != wantCost {
			t.Fatalf("after %d enqueues Finish = (%v, %+v) want (%v, %+v)",
				i+1, busy, total, wantBusy, wantCost)
		}
		if e := q.EnergyJ(); e != wantBusy*dev.PowerW {
			t.Fatalf("EnergyJ = %v want %v", e, wantBusy*dev.PowerW)
		}
	}
	q.Reset()
	if busy, total := q.Finish(); busy != 0 || total != (Cost{}) {
		t.Errorf("after Reset Finish = (%v, %+v)", busy, total)
	}
	if q.EnergyJ() != 0 {
		t.Errorf("after Reset EnergyJ = %v", q.EnergyJ())
	}
	if len(q.Events()) != 0 {
		t.Errorf("after Reset %d events", len(q.Events()))
	}
}

func TestExecModeString(t *testing.T) {
	if Auto.String() != "auto" || Serial.String() != "serial" {
		t.Error("ExecMode strings wrong")
	}
}
