package cl

import (
	"sync"
	"testing"
)

func TestConcurrentAllocationsAccountCorrectly(t *testing.T) {
	// The context is shared by host threads managing different devices;
	// allocation accounting must be race-free and exact.
	ctx := NewContext()
	dev := testDevice()
	dev.GlobalMem = 1 << 30
	dev.MaxAlloc = 1 << 28
	const (
		workers = 8
		rounds  = 200
		size    = 1 << 10
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				b, err := ctx.AllocBuffer(dev, size)
				if err != nil {
					t.Error(err)
					return
				}
				b.Free()
			}
		}()
	}
	wg.Wait()
	if got := ctx.Allocated(dev); got != 0 {
		t.Errorf("allocated after all frees = %d want 0", got)
	}
}

func TestConcurrentFreeDecrementsOnce(t *testing.T) {
	// Regression: Free used to read and set b.free outside the context
	// lock, so two goroutines racing on the same buffer could both see
	// it live and double-decrement the device accounting. Under -race
	// this test also fails on the unsynchronised flag access itself.
	ctx := NewContext()
	dev := testDevice()
	const rounds = 200
	for r := 0; r < rounds; r++ {
		b, err := ctx.AllocBuffer(dev, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.Free()
			}()
		}
		wg.Wait()
		if got := ctx.Allocated(dev); got != 0 {
			t.Fatalf("round %d: allocated = %d want 0 (double decrement)", r, got)
		}
	}
}

func TestQueuesOnSeparateDevicesIndependent(t *testing.T) {
	d1 := testDevice()
	d2 := testDevice()
	d2.ComputeUnits = 1
	q1, q2 := NewQueue(d1), NewQueue(d2)
	k := &Kernel{Name: "w", Body: func(wi *WorkItem, _ any) { wi.Charge(Cost{DPCells: 100}) }}
	if _, err := q1.EnqueueNDRange(k, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.EnqueueNDRange(k, 50); err != nil {
		t.Fatal(err)
	}
	b1, _ := q1.Finish()
	b2, _ := q2.Finish()
	if b2 <= b1 {
		t.Errorf("1-CU device (%v s) not slower than 4-CU device (%v s)", b2, b1)
	}
}

// TestInstallFaultsWhileEnqueueing arms and disarms a device's fault plan
// while another goroutine enqueues on it — two Map calls sharing a device,
// one arming it (ArmFaults) while the other's kernels run. The device's
// mutex publishes the plan to the enqueue path; under -race this test
// fails when either side reads or writes it without that lock.
func TestInstallFaultsWhileEnqueueing(t *testing.T) {
	dev := testDevice()
	q := NewQueue(dev)
	k := itemKernel()
	// Throttles only, at a factor the watchdog tolerates: every enqueue
	// succeeds whether or not the plan is armed when it starts.
	plan := &FaultPlan{Throttles: []Throttle{{From: 1, To: 1 << 20, Factor: 0.5}}}
	const rounds = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			dev.InstallFaults(plan)
			dev.InstallFaults(nil)
		}
	}()
	for r := 0; r < rounds; r++ {
		if _, err := q.EnqueueNDRange(k, 4); err != nil {
			t.Fatalf("enqueue %d: %v", r, err)
		}
	}
	<-done
}
