package cl

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func testDevice() *Device {
	return &Device{
		Name:            "test",
		Type:            CPU,
		ComputeUnits:    4,
		LanesPerCU:      1,
		LaneHz:          1e9,
		PrivateMemPerCU: 1024,
		GlobalMem:       1 << 20,
		MaxAlloc:        1 << 18,
		PowerW:          10,
		Weights:         Weights{FMStep: 10, DPCell: 1, VerifyWord: 1, Item: 5},
	}
}

func TestAllocWithinLimits(t *testing.T) {
	ctx := NewContext()
	dev := testDevice()
	b, err := ctx.AllocBuffer(dev, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 1000 || ctx.Allocated(dev) != 1000 {
		t.Errorf("size/allocated = %d/%d want 1000/1000", b.Size(), ctx.Allocated(dev))
	}
	b.Free()
	if ctx.Allocated(dev) != 0 {
		t.Errorf("after free allocated = %d want 0", ctx.Allocated(dev))
	}
	b.Free() // double free must be a no-op
	if ctx.Allocated(dev) != 0 {
		t.Errorf("double free changed accounting: %d", ctx.Allocated(dev))
	}
}

func TestUseAfterFreePanics(t *testing.T) {
	ctx := NewContext()
	dev := testDevice()
	b, err := ctx.AllocBuffer(dev, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Valid() {
		t.Error("fresh buffer reports invalid")
	}
	b.Free()
	if b.Valid() {
		t.Error("freed buffer reports valid")
	}
	// A use after free is a host bug the real API would surface as
	// CL_INVALID_MEM_OBJECT; the simulation panics with a clear message
	// rather than silently handing out stale metadata.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Size on freed buffer did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "use of freed") {
			t.Fatalf("panic = %v, want use-of-freed message", r)
		}
	}()
	_ = b.Size()
}

func TestNilBufferHandling(t *testing.T) {
	var b *Buffer
	b.Free() // must be a no-op, matching the old contract
	if b.Valid() {
		t.Error("nil buffer reports valid")
	}
}

func TestAllocRejectsOversize(t *testing.T) {
	ctx := NewContext()
	dev := testDevice()
	_, err := ctx.AllocBuffer(dev, dev.MaxAlloc+1)
	var ae *AllocError
	if !errors.As(err, &ae) {
		t.Fatalf("want AllocError, got %v", err)
	}
	if _, err := ctx.AllocBuffer(dev, 0); !errors.As(err, &ae) {
		t.Errorf("zero-size alloc: want AllocError, got %v", err)
	}
}

func TestAllocExhaustsGlobalMem(t *testing.T) {
	ctx := NewContext()
	dev := testDevice()
	// MaxAlloc is 256 KiB, global 1 MiB: four max buffers fit, a fifth not.
	var bufs []*Buffer
	for i := 0; i < 4; i++ {
		b, err := ctx.AllocBuffer(dev, dev.MaxAlloc)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		bufs = append(bufs, b)
	}
	if _, err := ctx.AllocBuffer(dev, dev.MaxAlloc); err == nil {
		t.Error("allocation past global memory accepted")
	}
	bufs[0].Free()
	if _, err := ctx.AllocBuffer(dev, dev.MaxAlloc); err != nil {
		t.Errorf("alloc after free failed: %v", err)
	}
}

func TestEnqueueRunsAllItems(t *testing.T) {
	q := NewQueue(testDevice())
	// One slot per global index: work items may run on any host worker,
	// but each index must execute exactly once.
	seen := make([]int32, 10)
	k := &Kernel{Name: "collect", Body: func(wi *WorkItem, _ any) {
		seen[wi.Global]++
		wi.Charge(Cost{Items: 1})
	}}
	ev, err := q.EnqueueNDRange(k, 10)
	if err != nil {
		t.Fatal(err)
	}
	for g, n := range seen {
		if n != 1 {
			t.Errorf("work item %d ran %d times", g, n)
		}
	}
	if ev.Cost.Items != 10 {
		t.Errorf("cost items = %d want 10", ev.Cost.Items)
	}
	if ev.SimSeconds <= 0 {
		t.Errorf("sim time = %v want > 0", ev.SimSeconds)
	}
}

func TestSimTimeScalesWithWork(t *testing.T) {
	dev := testDevice()
	q := NewQueue(dev)
	mk := func(steps int64) *Kernel {
		return &Kernel{Name: "work", Body: func(wi *WorkItem, _ any) {
			wi.Charge(Cost{FMSteps: steps})
		}}
	}
	ev1, _ := q.EnqueueNDRange(mk(100), 1000)
	ev2, _ := q.EnqueueNDRange(mk(200), 1000)
	if ratio := ev2.SimSeconds / ev1.SimSeconds; math.Abs(ratio-2) > 1e-9 {
		t.Errorf("2x work gave %vx time", ratio)
	}
}

func TestSimTimeScalesWithParallelism(t *testing.T) {
	k := &Kernel{Name: "w", Body: func(wi *WorkItem, _ any) { wi.Charge(Cost{DPCells: 1000}) }}
	d1 := testDevice()
	d2 := testDevice()
	d2.ComputeUnits = 8
	q1, q2 := NewQueue(d1), NewQueue(d2)
	e1, _ := q1.EnqueueNDRange(k, 100)
	e2, _ := q2.EnqueueNDRange(k, 100)
	if ratio := e1.SimSeconds / e2.SimSeconds; math.Abs(ratio-2) > 1e-9 {
		t.Errorf("doubling CUs gave %vx speedup", ratio)
	}
}

func TestOccupancyThrottling(t *testing.T) {
	dev := testDevice()
	dev.LanesPerCU = 8
	// 1024 B private per CU: a 512 B/item kernel fits 2 lanes, not 8.
	if got := dev.Occupancy(512); got != 2 {
		t.Errorf("Occupancy(512) = %d want 2", got)
	}
	if got := dev.Occupancy(0); got != 8 {
		t.Errorf("Occupancy(0) = %d want 8", got)
	}
	if got := dev.Occupancy(4096); got != 1 {
		t.Errorf("Occupancy(huge) = %d want 1", got)
	}
	fat := &Kernel{Name: "fat", PrivateBytesPerItem: 512,
		Body: func(wi *WorkItem, _ any) { wi.Charge(Cost{DPCells: 100}) }}
	thin := &Kernel{Name: "thin", PrivateBytesPerItem: 64,
		Body: func(wi *WorkItem, _ any) { wi.Charge(Cost{DPCells: 100}) }}
	q := NewQueue(dev)
	evFat, _ := q.EnqueueNDRange(fat, 1000)
	evThin, _ := q.EnqueueNDRange(thin, 1000)
	if evFat.SimSeconds <= evThin.SimSeconds {
		t.Errorf("fat kernel (%v s) not slower than thin (%v s)",
			evFat.SimSeconds, evThin.SimSeconds)
	}
}

func TestKernelPanicBecomesError(t *testing.T) {
	q := NewQueue(testDevice())
	k := &Kernel{Name: "boom", Body: func(wi *WorkItem, _ any) {
		if wi.Global == 3 {
			panic("kernel fault")
		}
	}}
	// A panic is a permanent launch failure, not a transient one.
	if _, err := q.EnqueueNDRange(k, 10); CodeOf(err) != OutOfResources || IsTransient(err) {
		t.Errorf("panicking kernel: error %v, want a permanent CL_OUT_OF_RESOURCES launch failure", err)
	}
	if _, err := q.EnqueueNDRange(k, -1); !errors.Is(err, InvalidGlobalWorkSize) {
		t.Errorf("negative global size: error %v, want CL_INVALID_GLOBAL_WORK_SIZE", err)
	}
}

func TestFinishAggregatesAndEnergy(t *testing.T) {
	dev := testDevice()
	q := NewQueue(dev)
	k := &Kernel{Name: "w", Body: func(wi *WorkItem, _ any) { wi.Charge(Cost{FMSteps: 10}) }}
	q.EnqueueNDRange(k, 100)
	q.EnqueueNDRange(k, 100)
	busy, total := q.Finish()
	if total.FMSteps != 2000 {
		t.Errorf("total FM steps = %d want 2000", total.FMSteps)
	}
	wantBusy := 2 * (2000.0 / 2 * 10) / (4 * 1e9) // per-enqueue: 1000 steps × 10 cyc / (4 CU × 1 GHz)
	if math.Abs(busy-wantBusy) > 1e-12 {
		t.Errorf("busy = %v want %v", busy, wantBusy)
	}
	if e := q.EnergyJ(); math.Abs(e-busy*10) > 1e-12 {
		t.Errorf("energy = %v want %v", e, busy*10)
	}
	q.Reset()
	if busy, _ := q.Finish(); busy != 0 {
		t.Errorf("after reset busy = %v", busy)
	}
}

func TestTransferAndLaunchOverhead(t *testing.T) {
	dev := testDevice()
	dev.LaunchOverheadSec = 0.5
	dev.TransferBytesPerSec = 1000
	q := NewQueue(dev)
	k := &Kernel{Name: "xfer", Body: func(wi *WorkItem, _ any) { wi.Charge(Cost{Bytes: 500}) }}
	ev, err := q.EnqueueNDRange(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Byte weight is 0 in testDevice, so time = launch + transfer.
	if math.Abs(ev.SimSeconds-(0.5+0.5)) > 1e-9 {
		t.Errorf("sim time %v want 1.0", ev.SimSeconds)
	}
}

func TestCatalogSanity(t *testing.T) {
	sys1 := SystemOne()
	if len(sys1.Devices) != 3 {
		t.Fatalf("System 1 has %d devices want 3", len(sys1.Devices))
	}
	gpu := GTX590(0)
	if gpu.MaxAlloc*4 != gpu.GlobalMem {
		t.Errorf("GPU MaxAlloc %d is not 1/4 of %d", gpu.MaxAlloc, gpu.GlobalMem)
	}
	hikey := HiKey970()
	if len(hikey.Devices) != 2 {
		t.Fatalf("HiKey has %d devices want 2", len(hikey.Devices))
	}
	// Embedded power must be orders of magnitude below the workstation.
	var hikeyPower, sys1Power float64
	for _, d := range hikey.Devices {
		hikeyPower += d.PowerW
	}
	for _, d := range sys1.Devices {
		sys1Power += d.PowerW
	}
	if hikeyPower*10 > sys1Power {
		t.Errorf("embedded power %v not well below workstation %v", hikeyPower, sys1Power)
	}
	// The CPU must beat one GPU on random-access throughput (FM steps/s)
	// — that asymmetry drives the paper's split-tuning figure.
	cpu := SystemOneCPU()
	cpuRate := float64(cpu.ComputeUnits) * cpu.LaneHz / cpu.Weights.FMStep
	gpuRate := float64(gpu.ComputeUnits*gpu.LanesPerCU) * gpu.LaneHz / gpu.Weights.FMStep
	if gpuRate >= cpuRate {
		t.Errorf("one GPU FM rate %v >= CPU %v; Table II shape would invert", gpuRate, cpuRate)
	}
	if gpuRate < cpuRate/5 {
		t.Errorf("GPU FM rate %v too far below CPU %v; GPUs would be useless", gpuRate, cpuRate)
	}
}

func TestDeviceTypeString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" || Accelerator.String() != "ACCEL" {
		t.Error("DeviceType strings wrong")
	}
}
