package serve

// Partition allocator: the piece that turns the shared device pool into
// disjoint per-job partitions. A job asks for n devices; the allocator
// hands out n free devices (closed breakers first, then half-open —
// canaries run only when no fully healthy device is free) and marks
// them busy until the job releases them. Which free devices may take
// the job is the one admission rule of cl.Admit: a free device whose
// breaker is open is passed over until its cooldown is over, unless
// fewer than n free devices are admitted without it. All decisions are
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
// open-breaker device the decision half-opened stays half-open).
func (a *allocator) acquire(n int) (idx []int, devs []*cl.Device, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var free []int
	var cand []*cl.Device
	for i, d := range a.devices {
		if !a.busy[i] {
			free = append(free, i)
			cand = append(cand, d)
		}
	}
	var closed, half []int
	for k, st := range cl.Admit(cand, n, nil) {
		switch st {
		case cl.BreakerClosed:
			closed = append(closed, free[k])
		case cl.BreakerHalfOpen:
			half = append(half, free[k])
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
