package cl

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// itemKernel is a trivial kernel charging one Item per work item, so the
// fault tests can predict simulated seconds exactly.
func itemKernel() *Kernel {
	return &Kernel{
		Name: "item",
		Body: func(wi *WorkItem, _ any) { wi.Charge(Cost{Items: 1}) },
	}
}

func TestErrorTaxonomy(t *testing.T) {
	launch := &Error{Code: OutOfResources, Op: "launch", Kernel: "k"}
	enq := &Error{Code: OutOfResources, Op: "enqueue", Device: "d"}
	lost := &Error{Code: DeviceNotAvailable, Op: "enqueue", Device: "d"}
	allocInj := &Error{Code: MemObjectAllocationFailure, Op: "alloc", Device: "d"}
	allocStruct := &AllocError{Device: "d", Requested: 10, Limit: 5, Reason: "too big"}

	// Sentinel matching, including through fmt.Errorf wrapping.
	if !errors.Is(enq, OutOfResources) {
		t.Error("enqueue fault does not match OutOfResources sentinel")
	}
	if !errors.Is(fmt.Errorf("wrapped: %w", lost), DeviceNotAvailable) {
		t.Error("wrapped device loss does not match DeviceNotAvailable")
	}
	if !errors.Is(allocStruct, MemObjectAllocationFailure) {
		t.Error("structural AllocError does not fold into MemObjectAllocationFailure")
	}
	if errors.Is(enq, DeviceNotAvailable) {
		t.Error("OutOfResources fault matches the wrong sentinel")
	}

	// Code extraction.
	if c := CodeOf(fmt.Errorf("x: %w", allocInj)); c != MemObjectAllocationFailure {
		t.Errorf("CodeOf(injected alloc) = %v", c)
	}
	if c := CodeOf(allocStruct); c != MemObjectAllocationFailure {
		t.Errorf("CodeOf(structural alloc) = %v", c)
	}
	if c := CodeOf(errors.New("plain")); c != Success {
		t.Errorf("CodeOf(plain) = %v", c)
	}

	// Retry classification: launch panics and structural allocation
	// failures are permanent, injected resource faults transient.
	if !IsTransient(fmt.Errorf("x: %w", enq)) {
		t.Error("enqueue OutOfResources not transient")
	}
	if !IsTransient(allocInj) {
		t.Error("injected allocation failure not transient")
	}
	if IsTransient(launch) {
		t.Error("launch failure (kernel panic) classified transient")
	}
	if IsTransient(allocStruct) {
		t.Error("structural allocation failure classified transient")
	}
	if IsTransient(lost) {
		t.Error("device loss classified transient")
	}

	if !IsAllocFailure(allocInj) || !IsAllocFailure(allocStruct) {
		t.Error("IsAllocFailure misses an allocation failure kind")
	}
	if !IsDeviceLost(fmt.Errorf("x: %w", lost)) || IsDeviceLost(enq) {
		t.Error("IsDeviceLost misclassifies")
	}

	// Code strings are the OpenCL names the logs should show.
	if s := OutOfResources.String(); s != "CL_OUT_OF_RESOURCES" {
		t.Errorf("OutOfResources.String() = %q", s)
	}
	if !strings.Contains(launch.Error(), "CL_OUT_OF_RESOURCES") {
		t.Errorf("Error() lacks code name: %q", launch.Error())
	}
}

func TestFaultPlanFailsScheduledEnqueue(t *testing.T) {
	dev := testDevice()
	dev.InstallFaults(&FaultPlan{FailEnqueues: map[int]Code{2: OutOfResources}})
	q := NewQueue(dev)
	q.SetExecMode(Serial)

	if _, err := q.EnqueueNDRange(itemKernel(), 4); err != nil {
		t.Fatalf("enqueue 1: %v", err)
	}
	busy1, cost1 := q.Finish()

	_, err := q.EnqueueNDRange(itemKernel(), 4)
	if !errors.Is(err, OutOfResources) {
		t.Fatalf("enqueue 2 err = %v, want CL_OUT_OF_RESOURCES", err)
	}
	// The failed enqueue runs nothing: no event, no time, no cost.
	busy2, cost2 := q.Finish()
	if busy2 != busy1 || cost2 != cost1 || len(q.Events()) != 1 {
		t.Errorf("failed enqueue charged work: busy %v->%v cost %+v->%+v events %d",
			busy1, busy2, cost1, cost2, len(q.Events()))
	}

	if _, err := q.EnqueueNDRange(itemKernel(), 4); err != nil {
		t.Fatalf("enqueue 3 after transient fault: %v", err)
	}
}

func TestFaultPlanDeviceLossIsSticky(t *testing.T) {
	dev := testDevice()
	dev.InstallFaults(&FaultPlan{FailEnqueues: map[int]Code{1: DeviceNotAvailable}})
	q := NewQueue(dev)
	q.SetExecMode(Serial)

	if _, err := q.EnqueueNDRange(itemKernel(), 1); !errors.Is(err, DeviceNotAvailable) {
		t.Fatalf("enqueue 1 err = %v, want CL_DEVICE_NOT_AVAILABLE", err)
	}
	// Every later operation on the device fails the same way.
	for i := 0; i < 3; i++ {
		if _, err := q.EnqueueNDRange(itemKernel(), 1); !errors.Is(err, DeviceNotAvailable) {
			t.Fatalf("post-loss enqueue err = %v", err)
		}
	}
	if _, err := NewContext().AllocBuffer(dev, 64); !errors.Is(err, DeviceNotAvailable) {
		t.Fatalf("post-loss alloc err = %v", err)
	}
}

func TestFaultPlanFailsScheduledAlloc(t *testing.T) {
	dev := testDevice()
	dev.InstallFaults(&FaultPlan{FailAllocs: map[int]Code{2: MemObjectAllocationFailure}})
	ctx := NewContext()

	b, err := ctx.AllocBuffer(dev, 64)
	if err != nil {
		t.Fatalf("alloc 1: %v", err)
	}
	defer b.Free()
	if _, err := ctx.AllocBuffer(dev, 64); !errors.Is(err, MemObjectAllocationFailure) {
		t.Fatalf("alloc 2 err = %v, want CL_MEM_OBJECT_ALLOCATION_FAILURE", err)
	}
	// Nothing was reserved by the failed allocation.
	if got := ctx.Allocated(dev); got != 64 {
		t.Errorf("allocated = %d, want 64", got)
	}
	b2, err := ctx.AllocBuffer(dev, 64)
	if err != nil {
		t.Fatalf("alloc 3 after transient fault: %v", err)
	}
	b2.Free()
}

func TestThrottleWindowSlowsExactEnqueues(t *testing.T) {
	// A device with only Item weight, one lane, no overhead: an N-item
	// enqueue takes N*Item/LaneHz seconds, so throttling is exact.
	dev := &Device{
		Name: "throttled", ComputeUnits: 1, LanesPerCU: 1, LaneHz: 1e9,
		GlobalMem: 1 << 20, MaxAlloc: 1 << 18, PowerW: 1,
		Weights: Weights{Item: 1000},
	}
	dev.InstallFaults(&FaultPlan{Throttles: []Throttle{{From: 2, To: 3, Factor: 0.5}}})
	q := NewQueue(dev)
	q.SetExecMode(Serial)
	for i := 0; i < 4; i++ {
		if _, err := q.EnqueueNDRange(itemKernel(), 8); err != nil {
			t.Fatal(err)
		}
	}
	evs := q.Events()
	full := evs[0].SimSeconds
	for i, want := range []float64{full, 2 * full, 2 * full, full} {
		if evs[i].SimSeconds != want {
			t.Errorf("enqueue %d: SimSeconds = %v, want %v", i+1, evs[i].SimSeconds, want)
		}
	}
}

func TestOverlappingThrottlesCompound(t *testing.T) {
	dev := &Device{
		Name: "throttled", ComputeUnits: 1, LanesPerCU: 1, LaneHz: 1e9,
		GlobalMem: 1 << 20, MaxAlloc: 1 << 18, PowerW: 1,
		Weights: Weights{Item: 1000},
	}
	dev.InstallFaults(&FaultPlan{Throttles: []Throttle{
		{From: 1, To: 2, Factor: 0.5},
		{From: 2, To: 2, Factor: 0.5},
	}})
	q := NewQueue(dev)
	q.SetExecMode(Serial)
	for i := 0; i < 3; i++ {
		if _, err := q.EnqueueNDRange(itemKernel(), 8); err != nil {
			t.Fatal(err)
		}
	}
	evs := q.Events()
	full := evs[2].SimSeconds
	if evs[0].SimSeconds != 2*full || evs[1].SimSeconds != 4*full {
		t.Errorf("throttled times %v, %v; want %v, %v",
			evs[0].SimSeconds, evs[1].SimSeconds, 2*full, 4*full)
	}
}

func TestInstallFaultsResetsOrdinals(t *testing.T) {
	dev := testDevice()
	plan := &FaultPlan{FailEnqueues: map[int]Code{1: OutOfResources}}
	dev.InstallFaults(plan)
	q := NewQueue(dev)
	q.SetExecMode(Serial)
	if _, err := q.EnqueueNDRange(itemKernel(), 1); !errors.Is(err, OutOfResources) {
		t.Fatalf("first armed enqueue err = %v", err)
	}
	if _, err := q.EnqueueNDRange(itemKernel(), 1); err != nil {
		t.Fatalf("second enqueue: %v", err)
	}
	// Re-arming starts the schedule over.
	dev.InstallFaults(plan)
	if _, err := q.EnqueueNDRange(itemKernel(), 1); !errors.Is(err, OutOfResources) {
		t.Fatalf("re-armed enqueue err = %v", err)
	}
	// Disarming stops injection entirely.
	dev.InstallFaults(nil)
	if dev.FaultsInstalled() {
		t.Error("FaultsInstalled after disarm")
	}
	if _, err := q.EnqueueNDRange(itemKernel(), 1); err != nil {
		t.Fatalf("disarmed enqueue: %v", err)
	}
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("enq2=oor, alloc3=alloc,enq5=lost,throttle4-6=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if p.FailEnqueues[2] != OutOfResources || p.FailEnqueues[5] != DeviceNotAvailable {
		t.Errorf("FailEnqueues = %v", p.FailEnqueues)
	}
	if p.FailAllocs[3] != MemObjectAllocationFailure {
		t.Errorf("FailAllocs = %v", p.FailAllocs)
	}
	if len(p.Throttles) != 1 || p.Throttles[0] != (Throttle{From: 4, To: 6, Factor: 0.5}) {
		t.Errorf("Throttles = %v", p.Throttles)
	}

	for _, bad := range []string{
		"enq2",              // missing '='
		"enq0=oor",          // ordinal < 1
		"enqX=oor",          // non-numeric ordinal
		"enq2=boom",         // unknown code
		"alloc2=2",          // unknown code
		"throttle2=0.5",     // missing window
		"throttle5-2=0.5",   // inverted window
		"throttle1-2=0",     // factor out of range
		"throttle1-2=1.5",   // factor out of range
		"throttle1-2=NaN",   // NaN factor: fails every comparison
		"throttle1-2=nan",   // ParseFloat is case-insensitive
		"frobnicate2=oor",   // unknown directive
		"enq1=oor,,enq2=??", // second directive bad
	} {
		if _, err := ParseFaultPlan(bad); !errors.Is(err, ErrBadFaultPlan) {
			t.Errorf("ParseFaultPlan(%q) error = %v, want ErrBadFaultPlan", bad, err)
		}
	}
}

// FuzzParseFaultPlan holds the plan parser to its contract on any text:
// it never panics, every plan it rejects is rejected with ErrBadFaultPlan,
// and a plan it accepts can only schedule faults the injector can honour
// — ordinals from 1, windows that do not run backwards, and throttle
// factors in (0, 1]. A plan outside that range would be admitted and
// then inject nothing.
func FuzzParseFaultPlan(f *testing.F) {
	for _, s := range []string{
		"enq2=oor,alloc3=alloc,throttle4-6=0.5",
		"enq2=oor, alloc3=alloc,enq5=lost,throttle4-6=0.5",
		"device=2,enq1=oor",
		"device=2,enq3=lost,throttle1-2=0.05",
		"device=2,throttle1-2=0.001,enq3=lost",
		"enq1=oor,,enq2=??",
		"throttle5-2=0.5",
		"throttle1-2=NaN",
		"throttle1-2=1e-320",
		"device=0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseFaultPlan(s)
		if err != nil {
			if !errors.Is(err, ErrBadFaultPlan) {
				t.Errorf("%q: error %v does not wrap ErrBadFaultPlan", s, err)
			}
			return
		}
		if p.Device < 0 {
			t.Errorf("%q: device ordinal %d", s, p.Device)
		}
		for _, m := range []map[int]Code{p.FailEnqueues, p.FailAllocs} {
			for n := range m {
				if n < 1 {
					t.Errorf("%q: fault ordinal %d", s, n)
				}
			}
		}
		for _, th := range p.Throttles {
			if th.From < 1 || th.To < th.From || !(th.Factor > 0 && th.Factor <= 1) {
				t.Errorf("%q: throttle %+v", s, th)
			}
		}
	})
}

func TestEnvFaultPlan(t *testing.T) {
	t.Setenv("REPUTE_CL_FAULTS", "")
	if EnvFaultPlan() != nil {
		t.Error("unset env produced a plan")
	}
	t.Setenv("REPUTE_CL_FAULTS", "enq1=oor")
	p := EnvFaultPlan()
	if p == nil || p.FailEnqueues[1] != OutOfResources {
		t.Errorf("env plan = %+v", p)
	}
	t.Setenv("REPUTE_CL_FAULTS", "enq1=nonsense")
	defer func() {
		if recover() == nil {
			t.Error("malformed REPUTE_CL_FAULTS did not panic")
		}
	}()
	EnvFaultPlan()
}

// TestArmFaults is the device=K rule: a plan arms every unarmed device of
// the group, or only the Kth, and a K beyond the group is refused rather
// than arming nothing; an already-armed device keeps its plan and ordinals.
func TestArmFaults(t *testing.T) {
	plan := func(k int) *FaultPlan {
		return &FaultPlan{FailEnqueues: map[int]Code{1: OutOfResources}, Device: k}
	}
	for _, tc := range []struct {
		name    string
		plan    *FaultPlan
		prearm  int    // 1-based device armed beforehand, 0 for none
		armed   string // FaultsInstalled per device after the call
		wantErr string
	}{
		{"nil plan", nil, 0, "---", ""},
		{"every device", plan(0), 0, "xxx", ""},
		{"device=1", plan(1), 0, "x--", ""},
		{"device=3", plan(3), 0, "--x", ""},
		{"device=4 beyond the group", plan(4), 0, "---", "device=4 exceeds the 3-device group"},
		{"device=9 beyond the group", plan(9), 2, "-x-", "device=9 exceeds the 3-device group"},
		{"prearmed device keeps its plan", plan(0), 2, "xxx", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			devs := []*Device{testDevice(), testDevice(), testDevice()}
			if tc.prearm > 0 {
				devs[tc.prearm-1].InstallFaults(plan(0))
				devs[tc.prearm-1].RestoreFaultOrdinals(FaultOrdinals{Enqueues: 5})
			}
			err := ArmFaults(tc.plan, devs)
			if tc.wantErr == "" && err != nil {
				t.Fatalf("ArmFaults: %v", err)
			}
			if tc.wantErr != "" && (!errors.Is(err, ErrBadFaultPlan) || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("ArmFaults error = %v, want ErrBadFaultPlan naming %q", err, tc.wantErr)
			}
			got := ""
			for _, d := range devs {
				if d.FaultsInstalled() {
					got += "x"
				} else {
					got += "-"
				}
			}
			if got != tc.armed {
				t.Errorf("armed %s, want %s", got, tc.armed)
			}
			if tc.prearm > 0 {
				if o, _ := devs[tc.prearm-1].FaultOrdinals(); o.Enqueues != 5 {
					t.Errorf("prearmed device's ordinals reset to %+v", o)
				}
			}
		})
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	dev := testDevice()
	q := NewQueue(dev)
	q.SetExecMode(Serial)
	if _, err := q.EnqueueNDRange(itemKernel(), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := q.EnqueueNDRange(itemKernel(), 2); err != nil {
		t.Fatal(err)
	}
	evs := q.Events()
	evs[0].Kernel = "corrupted"
	evs = evs[:1]
	_ = append(evs, Event{Kernel: "alien"})
	fresh := q.Events()
	if len(fresh) != 2 || fresh[0].Kernel != "item" || fresh[1].Kernel != "item" {
		t.Errorf("queue log corrupted through Events(): %+v", fresh)
	}
}

func TestNilBufferSizeIsZero(t *testing.T) {
	var b *Buffer
	if got := b.Size(); got != 0 {
		t.Errorf("nil Buffer.Size() = %d, want 0", got)
	}
}

func TestChargePenaltyAddsBusyAndEnergy(t *testing.T) {
	dev := testDevice()
	q := NewQueue(dev)
	q.ChargePenalty(0.5)
	q.ChargePenalty(-1) // ignored
	q.ChargePenalty(0)  // ignored
	busy, _ := q.Finish()
	if busy != 0.5 {
		t.Errorf("busy = %v, want 0.5", busy)
	}
	if got, want := q.EnergyJ(), 0.5*dev.PowerW; got != want {
		t.Errorf("EnergyJ = %v, want %v", got, want)
	}
}

// TestFaultOrdinalsSnapshotRestore is the checkpoint-continuity
// contract: restoring a snapshot of the injection counters on a fresh
// device makes the plan's schedule continue where the snapshot was
// taken, instead of replaying from ordinal 1.
func TestFaultOrdinalsSnapshotRestore(t *testing.T) {
	plan := &FaultPlan{FailEnqueues: map[int]Code{3: OutOfResources}}

	// First process: two successful enqueues, then a snapshot.
	dev1 := testDevice()
	dev1.InstallFaults(plan)
	q1 := NewQueue(dev1)
	q1.SetExecMode(Serial)
	for i := 0; i < 2; i++ {
		if _, err := q1.EnqueueNDRange(itemKernel(), 4); err != nil {
			t.Fatalf("enqueue %d: %v", i+1, err)
		}
	}
	snap, ok := dev1.FaultOrdinals()
	if !ok {
		t.Fatal("FaultOrdinals on armed device returned ok=false")
	}
	if snap.Enqueues != 2 || snap.Dead {
		t.Fatalf("snapshot = %+v, want 2 enqueues, alive", snap)
	}

	// Resumed process: fresh device, same plan, restored counters. The
	// very next enqueue is ordinal 3 and must take the injected fault.
	dev2 := testDevice()
	dev2.InstallFaults(plan)
	if !dev2.RestoreFaultOrdinals(snap) {
		t.Fatal("RestoreFaultOrdinals on armed device returned false")
	}
	q2 := NewQueue(dev2)
	q2.SetExecMode(Serial)
	if _, err := q2.EnqueueNDRange(itemKernel(), 4); !errors.Is(err, OutOfResources) {
		t.Fatalf("restored enqueue err = %v, want CL_OUT_OF_RESOURCES (ordinal 3)", err)
	}

	// Without the restore the same enqueue is ordinal 1 and succeeds —
	// the divergence the checkpoint protocol exists to prevent.
	dev3 := testDevice()
	dev3.InstallFaults(plan)
	q3 := NewQueue(dev3)
	q3.SetExecMode(Serial)
	if _, err := q3.EnqueueNDRange(itemKernel(), 4); err != nil {
		t.Fatalf("unrestored enqueue: %v", err)
	}
}

// TestFaultOrdinalsRequireArmedPlan pins the no-plan behaviour.
func TestFaultOrdinalsRequireArmedPlan(t *testing.T) {
	dev := testDevice()
	if _, ok := dev.FaultOrdinals(); ok {
		t.Error("FaultOrdinals without a plan must report ok=false")
	}
	if dev.RestoreFaultOrdinals(FaultOrdinals{Enqueues: 5}) {
		t.Error("RestoreFaultOrdinals without a plan must report false")
	}
}

// TestFaultOrdinalsDeadIsRestored keeps a lost device lost across a
// resume.
func TestFaultOrdinalsDeadIsRestored(t *testing.T) {
	plan := &FaultPlan{FailEnqueues: map[int]Code{1: DeviceNotAvailable}}
	dev1 := testDevice()
	dev1.InstallFaults(plan)
	q1 := NewQueue(dev1)
	q1.SetExecMode(Serial)
	if _, err := q1.EnqueueNDRange(itemKernel(), 4); !errors.Is(err, DeviceNotAvailable) {
		t.Fatalf("enqueue 1 err = %v, want CL_DEVICE_NOT_AVAILABLE", err)
	}
	snap, _ := dev1.FaultOrdinals()
	if !snap.Dead {
		t.Fatal("snapshot of lost device must record Dead")
	}

	dev2 := testDevice()
	dev2.InstallFaults(plan)
	dev2.RestoreFaultOrdinals(snap)
	q2 := NewQueue(dev2)
	q2.SetExecMode(Serial)
	if _, err := q2.EnqueueNDRange(itemKernel(), 4); !errors.Is(err, DeviceNotAvailable) {
		t.Fatalf("restored enqueue err = %v, want device still lost", err)
	}
}
