package serve

// Partition allocator: the piece that turns the shared device pool into
// disjoint per-job partitions. A job asks for n devices; the allocator
// hands out n free devices (closed breakers first, then half-open —
// canaries run only when no fully healthy device is free) and marks
// them busy until the job releases them. A free device whose circuit
// breaker is open has sat out its cooldown: acquire half-opens it
// (cl.Breaker.Skipped) and it competes as a canary. All decisions are
// count-driven — no clocks, no randomness — so a scripted chaos run
// allocates identically every time.

import (
	"sync"

	"repro/internal/cl"
)

// allocator tracks which pool devices are checked out to running jobs.
type allocator struct {
	devices []*cl.Device // immutable after newAllocator

	mu   sync.Mutex
	busy []bool // guarded by mu; busy[i] = devices[i] is checked out
}

func newAllocator(devices []*cl.Device) *allocator {
	return &allocator{devices: devices, busy: make([]bool, len(devices))}
}

// acquire tries to check out n free devices. On success it returns the
// chosen pool indices and devices with ok true; when fewer than n
// devices are free it reports ok false and checks out nothing (a free
// open-breaker device it reached stays half-open).
func (a *allocator) acquire(n int) (idx []int, devs []*cl.Device, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var closed, half []int
	for i, d := range a.devices {
		if a.busy[i] {
			continue
		}
		st := d.BreakerState()
		if st == cl.BreakerOpen {
			st, _ = d.Breaker().Skipped()
		}
		switch st {
		case cl.BreakerClosed:
			closed = append(closed, i)
		case cl.BreakerHalfOpen:
			half = append(half, i)
		}
	}
	if len(closed)+len(half) < n {
		return nil, nil, false
	}
	idx = append(closed, half...)[:n]
	devs = make([]*cl.Device, n)
	for k, i := range idx {
		a.busy[i] = true
		devs[k] = a.devices[i]
	}
	return idx, devs, true
}

// release returns a partition's devices to the pool.
func (a *allocator) release(idx []int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, i := range idx {
		a.busy[i] = false
	}
}
