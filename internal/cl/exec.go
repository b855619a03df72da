package cl

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Host execution of an ND-range. A real OpenCL runtime executes work
// items concurrently on the device; this simulated runtime executes them
// on the host, and for years did so serially — wall-clock time was
// single-core no matter how many devices the simulation modelled. The
// work-group scheduler below partitions the global range into groups of
// consecutive indices and drains them with min(GOMAXPROCS, groups) host
// workers. Each worker owns a private kernel state (Kernel.NewState) and
// a private Cost accumulator; the accumulators merge at the barrier.
//
// Simulated results are independent of the host schedule by design:
// work items write disjoint output slots, Cost fields are integers whose
// sum is order-independent, and simulated seconds are derived from the
// merged total in one place. The determinism tests in internal/core
// assert this end to end.

// ExecMode selects how an ND-range's work items run on the host.
type ExecMode int

const (
	// Auto, the zero value, runs work groups on a pool of host workers;
	// with GOMAXPROCS 1, or a range of one work group, it takes the
	// serial path.
	Auto ExecMode = iota
	// Serial runs every work item on the enqueuing goroutine in global
	// order — the debugging escape hatch and the reference the parallel
	// scheduler must match bit for bit.
	Serial
)

func (m ExecMode) String() string {
	if m == Serial {
		return "serial"
	}
	return "auto"
}

// workGroupSize is the scheduler's dispatch granularity: consecutive
// global indices handed to a worker as one unit, like an OpenCL local
// work size. Large enough to amortise the atomic fetch per group, small
// enough to balance skewed per-item costs (repetitive reads cost orders
// of magnitude more than unique ones).
const workGroupSize = 64

// run executes k over globalSize work items under mode m and returns the
// merged cost.
func (m ExecMode) run(k *Kernel, globalSize int) (Cost, error) {
	workers := runtime.GOMAXPROCS(0)
	groups := (globalSize + workGroupSize - 1) / workGroupSize
	if workers > groups {
		workers = groups
	}
	if m == Serial || workers <= 1 {
		return runSerial(k, globalSize)
	}
	return runParallel(k, globalSize, workers, groups)
}

// runSerial is the original single-goroutine path.
func runSerial(k *Kernel, globalSize int) (total Cost, err error) {
	defer func() {
		if r := recover(); r != nil {
			total = Cost{}
			err = launchError(k, r)
		}
	}()
	var state any
	if k.NewState != nil {
		state = k.NewState()
	}
	// wi is hoisted out of the loop: &wi escapes through the indirect
	// Body call, so a loop-scoped wi would heap-allocate one WorkItem
	// per work item. Hoisted, the whole run costs one allocation.
	var wi WorkItem
	for g := 0; g < globalSize; g++ {
		wi = WorkItem{Global: g}
		k.Body(&wi, state)
		total.Add(wi.cost)
	}
	return total, nil
}

// runParallel drains the work groups with a worker pool. Workers pull
// group indices from a shared counter (dynamic scheduling), so a run of
// expensive items does not serialise behind a static partition.
func runParallel(k *Kernel, globalSize, workers, groups int) (Cost, error) {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		fault atomic.Pointer[error]
	)
	//repute:allow hotalloc -- per-enqueue pool setup, amortised over the whole ND-range
	costs := make([]Cost, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//repute:allow hotalloc -- one worker closure per pool slot, not per work item
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					err := launchError(k, r)
					fault.CompareAndSwap(nil, &err)
				}
			}()
			var state any
			if k.NewState != nil {
				state = k.NewState()
			}
			var local Cost
			// Hoisted for the same reason as in runSerial: one WorkItem
			// per worker instead of one per item.
			var wi WorkItem
			for {
				g := int(next.Add(1) - 1)
				if g >= groups {
					break
				}
				lo := g * workGroupSize
				hi := lo + workGroupSize
				if hi > globalSize {
					hi = globalSize
				}
				for i := lo; i < hi; i++ {
					wi = WorkItem{Global: i}
					k.Body(&wi, state)
					local.Add(wi.cost)
				}
			}
			costs[w] = local
		}(w)
	}
	wg.Wait()
	if errp := fault.Load(); errp != nil {
		return Cost{}, *errp
	}
	// Merge in worker order: integer sums are schedule-independent, so
	// the total — and the simulated seconds derived from it — is
	// bit-identical to the serial path.
	var total Cost
	for _, c := range costs {
		total.Add(c)
	}
	return total, nil
}

// launchError converts a kernel-body panic into the typed launch
// failure a real runtime would report. Op "launch" marks it permanent
// for retry classification (IsTransient): the panic is deterministic, so
// re-running the same range can only panic again.
func launchError(k *Kernel, r any) error {
	return &Error{Code: OutOfResources, Op: "launch", Kernel: k.Name,
		Detail: fmt.Sprintf("kernel aborted: %v", r)}
}
