package cl

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/trace"
)

// breakerEvent is one step of a table-driven breaker scenario.
type breakerEvent struct {
	op         string // "ok", "transient", "lost", "watchdog", "launch", "skip", "admit"
	wantState  BreakerState
	wantChange bool
}

func (e breakerEvent) apply(t *testing.T, b *Breaker, step int) {
	t.Helper()
	var (
		state   BreakerState
		changed bool
	)
	switch e.op {
	case "ok":
		state, changed = b.RecordSuccess()
	case "transient":
		state, changed = b.RecordFailure(&Error{Code: OutOfResources, Op: "enqueue", Device: "d"})
	case "lost":
		state, changed = b.RecordFailure(&Error{Code: DeviceNotAvailable, Op: "enqueue", Device: "d"})
	case "watchdog":
		state, changed = b.RecordFailure(&Error{Code: CommandTerminated, Op: "enqueue", Device: "d"})
	case "launch":
		state, changed = b.RecordFailure(&Error{Code: OutOfResources, Op: "launch", Kernel: "k"})
	case "skip":
		state, changed = b.Skipped()
	case "admit":
		state, changed = b.admit()
	default:
		t.Fatalf("step %d: unknown op %q", step, e.op)
	}
	if state != e.wantState || changed != e.wantChange {
		t.Fatalf("step %d (%s): got state %v changed %v, want %v/%v",
			step, e.op, state, changed, e.wantState, e.wantChange)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	cases := []struct {
		name   string
		events []breakerEvent
	}{
		{
			name: "device loss trips immediately",
			events: []breakerEvent{
				{"ok", BreakerClosed, false},
				{"lost", BreakerOpen, true},
				{"transient", BreakerOpen, false}, // in-flight stragglers don't re-trip
			},
		},
		{
			name: "consecutive transients reach the threshold",
			events: []breakerEvent{
				{"transient", BreakerClosed, false},
				{"transient", BreakerClosed, false},
				{"transient", BreakerOpen, true},
			},
		},
		{
			name: "successes decay the score back",
			events: []breakerEvent{
				{"transient", BreakerClosed, false},
				{"transient", BreakerClosed, false}, // score 2
				{"ok", BreakerClosed, false},        // decays to 1
				{"ok", BreakerClosed, false},        // decays to 0.5
				{"transient", BreakerClosed, false}, // 1.5 < threshold
				{"transient", BreakerClosed, false}, // 2.5 < threshold
				{"transient", BreakerOpen, true},    // 3.5 trips
			},
		},
		{
			name: "watchdog terminations count as transient failures",
			events: []breakerEvent{
				{"watchdog", BreakerClosed, false},
				{"watchdog", BreakerClosed, false},
				{"watchdog", BreakerOpen, true},
			},
		},
		{
			name: "launch faults are program bugs, not device health",
			events: []breakerEvent{
				{"launch", BreakerClosed, false},
				{"launch", BreakerClosed, false},
				{"launch", BreakerClosed, false},
				{"launch", BreakerClosed, false},
			},
		},
		{
			name: "cooldown skips reach half-open, canary success closes",
			events: []breakerEvent{
				{"lost", BreakerOpen, true},
				{"skip", BreakerHalfOpen, true}, // one pass-over is the whole cooldown
				{"ok", BreakerClosed, true},
				{"skip", BreakerClosed, false}, // skip on a closed breaker is a no-op
			},
		},
		{
			name: "half-open canary failure reopens",
			events: []breakerEvent{
				{"lost", BreakerOpen, true},
				{"skip", BreakerHalfOpen, true},
				{"transient", BreakerOpen, true},
				{"skip", BreakerOpen, false}, // the failed canary doubled the cooldown
				{"skip", BreakerHalfOpen, true},
				{"ok", BreakerClosed, true},
			},
		},
		{
			name:   "failed canaries double the cooldown up to the cap",
			events: slices.Concat(lost, failedCanaries(1, 2, 4, 8, 16, 32, 64, 64)),
		},
		{
			name: "readmission resets the cooldown to one decision",
			events: slices.Concat(lost, failedCanaries(1, 2, 4), sitOut(8), []breakerEvent{{"ok", BreakerClosed, true}},
				lost, sitOut(1)),
		},
		{
			name: "a forced admission half-opens mid-cooldown",
			events: []breakerEvent{
				{"admit", BreakerClosed, false}, // no-op on a closed breaker
				{"lost", BreakerOpen, true},
				{"skip", BreakerHalfOpen, true},
				{"transient", BreakerOpen, true}, // cooldown 2
				{"admit", BreakerHalfOpen, true}, // before its first skip
				{"transient", BreakerOpen, true}, // a failed canary all the same: cooldown 4
				{"skip", BreakerOpen, false},
				{"skip", BreakerOpen, false},
				{"skip", BreakerOpen, false},
				{"skip", BreakerHalfOpen, true},
				{"ok", BreakerClosed, true},
				{"admit", BreakerClosed, false},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := &Breaker{}
			for i, e := range tc.events {
				e.apply(t, b, i)
			}
		})
	}
}

// lost is a closed breaker's trip by device loss.
var lost = []breakerEvent{{"lost", BreakerOpen, true}}

// sitOut is an open breaker's cooldown of c decisions: passed over until
// the last one half-opens it.
func sitOut(c int) []breakerEvent {
	evs := make([]breakerEvent, c)
	for i := range evs {
		evs[i] = breakerEvent{"skip", BreakerOpen, false}
	}
	evs[c-1] = breakerEvent{"skip", BreakerHalfOpen, true}
	return evs
}

// failedCanaries sits out each cooldown in turn and fails the canary
// that ends it.
func failedCanaries(cooldowns ...int) []breakerEvent {
	var evs []breakerEvent
	for _, c := range cooldowns {
		evs = append(append(evs, sitOut(c)...), breakerEvent{"transient", BreakerOpen, true})
	}
	return evs
}

func TestBreakerCounters(t *testing.T) {
	b := &Breaker{}
	b.RecordFailure(&Error{Code: DeviceNotAvailable, Op: "enqueue"})
	b.Skipped()
	b.RecordFailure(&Error{Code: OutOfResources, Op: "enqueue"}) // canary fails
	b.Skipped()
	b.Skipped()       // the second decision of the doubled cooldown
	b.RecordSuccess() // canary passes
	if got := b.Trips(); got != 2 {
		t.Errorf("Trips() = %d, want 2", got)
	}
	if got := b.Readmits(); got != 1 {
		t.Errorf("Readmits() = %d, want 1", got)
	}
}

func TestDeviceBreakerFedByEnqueueAndAlloc(t *testing.T) {
	dev := SystemOneCPU()
	dev.InstallFaults(&FaultPlan{FailEnqueues: map[int]Code{1: DeviceNotAvailable}})
	rec := trace.NewRecorder()
	q := NewQueue(dev)
	q.SetTracer(rec)
	if _, err := q.EnqueueNDRange(itemKernel(), 4); !IsDeviceLost(err) {
		t.Fatalf("EnqueueNDRange error = %v, want device lost", err)
	}
	if got := dev.BreakerState(); got != BreakerOpen {
		t.Fatalf("breaker state after device loss = %v, want open", got)
	}
	opens := 0
	for _, ev := range rec.Events() {
		if ev.Name == "breaker-open" {
			opens++
		}
	}
	if opens != 1 {
		t.Errorf("breaker-open instants = %d, want 1", opens)
	}

	// A fresh device's breaker trips on the third injected transient
	// alloc failure in a row; three structural alloc failures on another
	// do not (they say nothing about device health).
	inj := SystemOneCPU()
	inj.InstallFaults(&FaultPlan{FailAllocs: map[int]Code{
		1: MemObjectAllocationFailure, 2: MemObjectAllocationFailure, 3: MemObjectAllocationFailure,
	}})
	ctx := NewContext()
	for i := 1; i <= 3; i++ {
		if got := inj.BreakerState(); got != BreakerClosed {
			t.Errorf("breaker state before injected alloc failure %d = %v, want closed", i, got)
		}
		if _, err := ctx.AllocBuffer(inj, 64); !IsAllocFailure(err) {
			t.Fatalf("AllocBuffer %d error = %v, want alloc failure", i, err)
		}
	}
	if got := inj.BreakerState(); got != BreakerOpen {
		t.Errorf("breaker state after three injected alloc failures = %v, want open", got)
	}
	str := SystemOneCPU()
	for i := 0; i < 3; i++ {
		if _, err := ctx.AllocBuffer(str, str.MaxAlloc+1); err == nil {
			t.Fatal("oversized alloc succeeded")
		}
	}
	if got := str.BreakerState(); got != BreakerClosed {
		t.Errorf("breaker state after structural alloc failure = %v, want closed", got)
	}
}

func TestWatchdogFiresOnThrottledEnqueue(t *testing.T) {
	// SystemOne's CPU has no launch overhead and no transfer link, so a
	// throttled enqueue overruns the unthrottled expectation by exactly
	// 1/factor: factor 0.1 against the 8× watchdog fires, factor 0.5 does
	// not.
	dev := SystemOneCPU()
	dev.InstallFaults(&FaultPlan{Throttles: []Throttle{{From: 1, To: 1, Factor: 0.1}}})
	rec := trace.NewRecorder()
	q := NewQueue(dev)
	q.SetTracer(rec)

	_, err := q.EnqueueNDRange(itemKernel(), 1024)
	if !IsWatchdogTimeout(err) {
		t.Fatalf("throttled enqueue error = %v, want watchdog timeout", err)
	}
	if !IsTransient(err) {
		t.Error("watchdog timeout is not transient — it would skip the in-place retry tier")
	}
	if errors.Is(err, DeviceNotAvailable) {
		t.Error("watchdog timeout must not classify as device loss")
	}
	// The kill charges exactly the budget: 8× the unthrottled duration.
	expected := dev.simSeconds(itemKernel(), Cost{Items: 1024}, 1)
	busy, _ := q.Finish()
	if want := watchdogMultiple * expected; math.Abs(busy-want) > 1e-12 {
		t.Errorf("busy after watchdog kill = %g, want the %g budget", busy, want)
	}
	if len(q.Events()) != 0 {
		t.Errorf("watchdog-killed enqueue recorded %d events, want 0", len(q.Events()))
	}
	fired := false
	for _, ev := range rec.Events() {
		if ev.Name == "watchdog-fired" {
			fired = true
		}
	}
	if !fired {
		t.Error("no watchdog-fired instant recorded")
	}

	// Past the throttle window the same enqueue is healthy again.
	if _, err := q.EnqueueNDRange(itemKernel(), 1024); err != nil {
		t.Fatalf("post-window enqueue failed: %v", err)
	}

	// A mild throttle within the watchdog multiple never fires.
	mild := SystemOneCPU()
	mild.InstallFaults(&FaultPlan{Throttles: []Throttle{{From: 1, To: 1, Factor: 0.5}}})
	if _, err := NewQueue(mild).EnqueueNDRange(itemKernel(), 1024); err != nil {
		t.Fatalf("mild throttle enqueue failed: %v", err)
	}
}

func TestParseFaultPlanDeviceDirective(t *testing.T) {
	p, err := ParseFaultPlan("device=2,enq3=lost,throttle1-2=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if p.Device != 2 {
		t.Errorf("Device = %d, want 2", p.Device)
	}
	if p.FailEnqueues[3] != DeviceNotAvailable || len(p.Throttles) != 1 {
		t.Errorf("directives around device= were lost: %+v", p)
	}
	if _, err := ParseFaultPlan("device=0"); !errors.Is(err, ErrBadFaultPlan) {
		t.Errorf("device=0 error = %v, want ErrBadFaultPlan", err)
	}
	if _, err := ParseFaultPlan("device=x"); !errors.Is(err, ErrBadFaultPlan) {
		t.Errorf("device=x error = %v, want ErrBadFaultPlan", err)
	}
}

// breakerModel is FuzzBreaker's reference: the DESIGN.md §17 rules
// written out, with the cooldown 2^(failed canaries in a row), capped.
type breakerModel struct {
	state                  BreakerState
	score                  float64
	failedCanaries, waited int
	trips, readmits        int64
}

func (m *breakerModel) step(op string) {
	switch {
	case op == "ok":
		m.score /= 2
		if m.state == BreakerHalfOpen {
			m.state, m.score, m.failedCanaries = BreakerClosed, 0, 0
			m.readmits++
		}
	case op == "transient" || op == "lost":
		if op == "transient" {
			m.score++
		}
		if m.state != BreakerOpen && (op == "lost" || m.state == BreakerHalfOpen || m.score >= 3) {
			if m.state == BreakerHalfOpen {
				m.failedCanaries++
			}
			m.state, m.waited = BreakerOpen, 0
			m.trips++
		}
	case m.state != BreakerOpen: // skip and admit leave a closed or half-open breaker alone
	case op == "admit" || m.waited+1 >= 1<<min(m.failedCanaries, 6):
		m.state, m.score = BreakerHalfOpen, 0
	default:
		m.waited++
	}
}

// FuzzBreaker drives a Breaker and the reference model with the same
// random sequence of lost/transient/ok/skip/admit events and requires the
// same state, transition flag and counters after every event.
func FuzzBreaker(f *testing.F) {
	f.Add([]byte{1, 3, 1, 3, 3, 1, 3, 3, 3, 3, 2, 1, 3})
	f.Add([]byte{0, 0, 0, 4, 1, 3, 0, 4, 1, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		b, m := &Breaker{}, &breakerModel{}
		for i, o := range ops {
			op := [...]string{"transient", "lost", "ok", "skip", "admit"}[o%5]
			before := m.state
			m.step(op)
			breakerEvent{op, m.state, m.state != before}.apply(t, b, i)
			if b.Trips() != m.trips || b.Readmits() != m.readmits {
				t.Fatalf("step %d (%s): trips %d readmits %d, model %d %d", i, op, b.Trips(), b.Readmits(), m.trips, m.readmits)
			}
		}
	})
}

// TestAdmit: one decision passes over an open device in its cooldown and
// counts the pass, half-opens it when too few devices are left without
// it, and traces each half-open.
func TestAdmit(t *testing.T) {
	a, b, c := SystemOneCPU(), SystemOneCPU(), SystemOneCPU()
	a.Name, b.Name, c.Name = "a", "b", "c"
	for _, d := range []*Device{b, c} { // open with a cooldown of two decisions
		for _, e := range slices.Concat(lost, failedCanaries(1)) {
			e.apply(t, d.Breaker(), 0)
		}
	}
	rec := trace.NewRecorder()
	for _, step := range []struct {
		devs []*Device
		need int
		want []BreakerState
	}{
		{[]*Device{a, b, c}, 1, []BreakerState{BreakerClosed, BreakerOpen, BreakerOpen}}, // each counts its first pass
		{[]*Device{a, b}, 1, []BreakerState{BreakerClosed, BreakerHalfOpen}},             // b's second pass ends its cooldown
		{[]*Device{a, c}, 3, []BreakerState{BreakerClosed, BreakerHalfOpen}},             // so does c's; it could not be left out anyway
	} {
		if got := Admit(step.devs, step.need, rec); !slices.Equal(got, step.want) {
			t.Fatalf("Admit(need %d) = %v, want %v", step.need, got, step.want)
		}
	}
	b.Breaker().RecordFailure(&Error{Code: DeviceNotAvailable}) // cooldown 4
	if got := Admit([]*Device{b, c}, 2, rec); !slices.Equal(got, []BreakerState{BreakerHalfOpen, BreakerHalfOpen}) {
		t.Fatalf("Admit(need 2) = %v, want b half-opened at once", got)
	}
	if n := len(slices.DeleteFunc(rec.Events(), func(e trace.Event) bool { return e.Name != "breaker-half-open" })); n != 3 {
		t.Errorf("breaker-half-open instants = %d, want 3", n)
	}
}
