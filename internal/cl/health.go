package cl

// Device health: a per-device circuit breaker and a simulated-time hang
// watchdog. Together they are the detection half of the fault-tolerance
// story — the typed taxonomy (errors.go) classifies a single failure,
// the breaker classifies the *device* from its failure history, and the
// watchdog turns a silent hang (an enqueue whose simulated duration
// blows past the cost model's expectation) into an ordinary typed fault
// the existing retry/failover machinery already knows how to recover.
//
// Everything here is deterministic by construction: breaker transitions
// are driven by the per-device operation sequence (the same ordinal
// schedule fault plans count on) and by explicit Skipped() cooldown
// ticks — never by wall-clock time or randomness — so a chaos run
// produces the same breaker history every time (pipedeterminism-clean).
//
// DESIGN.md §17 documents the state machine and the watchdog threshold
// derivation.

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// BreakerState is a circuit breaker's position: Closed (healthy,
// admitting work), HalfOpen (probing — the next batch is a canary) or
// Open (tripped — in-place retries stop, and the next scheduling
// decision that reaches the device half-opens it for a canary).
type BreakerState int32

// Breaker states. The numeric values are the device_breaker_state gauge
// encoding, chosen so "bigger is sicker".
const (
	BreakerClosed   BreakerState = 0
	BreakerHalfOpen BreakerState = 1
	BreakerOpen     BreakerState = 2
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// Breaker tuning, the same for every device: a decayed failure score of
// breakerTripScore opens the breaker — three transient faults in a row
// trip it, while isolated faults decay away between successes — and
// every successful operation multiplies the score by
// breakerSuccessDecay.
const (
	breakerTripScore    = 3
	breakerSuccessDecay = 0.5
)

// Breaker is a per-device circuit breaker: closed → open → half-open →
// closed. Transient faults (including watchdog terminations) feed a
// decaying failure score; device loss trips the breaker immediately; a
// half-open breaker re-closes on its first success (the canary passed)
// and re-opens on its first failure. All transitions are counted-not-
// clocked, so breaker history under a scheduled fault plan is exactly
// reproducible. The zero value is a closed breaker; most callers arm one
// with Device.EnableBreaker.
type Breaker struct {
	mu       sync.Mutex
	state    BreakerState // guarded by mu
	score    float64      // guarded by mu; decayed failure score
	trips    int64        // guarded by mu; transitions into Open
	readmits int64        // guarded by mu; half-open canaries that closed it
}

// State returns the breaker's current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times the breaker has entered Open.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Readmits returns how many half-open canaries have re-closed the
// breaker.
func (b *Breaker) Readmits() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.readmits
}

// RecordSuccess feeds one successful device operation. In Closed it
// decays the failure score; in HalfOpen the operation was the canary and
// the breaker re-closes. Returns the resulting state and whether this
// call transitioned it.
func (b *Breaker) RecordSuccess() (BreakerState, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.score *= breakerSuccessDecay
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.score = 0
		b.readmits++
		return b.state, true
	}
	return b.state, false
}

// RecordFailure feeds one failed device operation. Device loss trips the
// breaker immediately; transient faults (resource squeezes, watchdog
// terminations) raise the decaying score and trip it at the threshold; a
// failure in HalfOpen means the canary died and the breaker re-opens.
// Non-transient, non-loss errors (host-program bugs like invalid work
// sizes) say nothing about device health and are ignored. Returns the
// resulting state and whether this call transitioned it.
func (b *Breaker) RecordFailure(err error) (BreakerState, bool) {
	lost := IsDeviceLost(err)
	if !lost && !IsTransient(err) {
		return b.State(), false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !lost {
		b.score++
	}
	switch {
	case b.state == BreakerOpen:
		return b.state, false
	case lost || b.state == BreakerHalfOpen || b.score >= breakerTripScore:
		b.state = BreakerOpen
		b.trips++
		return b.state, true
	}
	return b.state, false
}

// Skipped records that a scheduler reached the device while its breaker
// was open — the cooldown, counted in scheduling decisions rather than
// seconds so chaos runs stay deterministic. One pass-over is the whole
// cooldown: the breaker goes half-open and the next operation is the
// canary. Returns the resulting state and whether this call
// transitioned it.
func (b *Breaker) Skipped() (BreakerState, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		return b.state, false
	}
	b.state = BreakerHalfOpen
	b.score = 0
	return b.state, true
}

// EnableBreaker arms a circuit breaker on the device (idempotent: an
// already-armed breaker is returned unchanged, keeping its history).
// Once armed, every enqueue and allocation on the device feeds it, and
// health-aware schedulers (core.Pipeline.Map, the serve partition
// allocator) send it a half-open canary when they find it open.
func (d *Device) EnableBreaker() *Breaker {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.breaker == nil {
		d.breaker = &Breaker{}
	}
	return d.breaker
}

// Breaker returns the device's circuit breaker, or nil when none is
// armed.
func (d *Device) Breaker() *Breaker {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.breaker
}

// BreakerState returns the device's breaker state; a device without a
// breaker is always Closed (healthy).
func (d *Device) BreakerState() BreakerState {
	b := d.Breaker()
	if b == nil {
		return BreakerClosed
	}
	return b.State()
}

// SetWatchdog arms the hang watchdog: an enqueue whose simulated
// duration exceeds factor × the cost model's unthrottled expectation for
// the same kernel and cost fails with CommandTerminated after charging
// the full budget as device time — the simulated analogue of a runtime
// killing a kernel that blew its timeout. factor <= 0 disarms. The
// threshold derives from the device's own cost model, so it is exact and
// deterministic: only genuinely slowed execution (a throttle window, a
// contended lane) can overrun it.
func (d *Device) SetWatchdog(factor float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if factor <= 0 {
		factor = 0
	}
	d.watchdogK = factor
}

// WatchdogFactor returns the armed watchdog multiple (0 = disarmed).
func (d *Device) WatchdogFactor() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.watchdogK
}

// feedBreaker feeds one operation outcome to dev's breaker (no-op when
// none is armed) and, on a state transition, emits a "breaker-open" or
// "breaker-closed" instant on the device's lane so quarantine and
// readmission are visible in traces and derivable as metrics
// (device_quarantined_total, device_readmitted_total). The enqueue path
// feeds both outcomes; the alloc path feeds failures only, so the
// successful bookkeeping allocations between kernel launches cannot
// decay away the score of a device whose kernels keep dying. Attr-free
// instants keep the hot path allocation-free.
//
//repute:hotpath
func feedBreaker(dev *Device, opErr error, tr *trace.Recorder) {
	b := dev.Breaker()
	if b == nil {
		return
	}
	var (
		state   BreakerState
		changed bool
	)
	if opErr == nil {
		state, changed = b.RecordSuccess()
	} else {
		state, changed = b.RecordFailure(opErr)
	}
	if !changed || tr == nil {
		return
	}
	switch state {
	case BreakerOpen:
		tr.Instant(dev.Name, "breaker-open")
	case BreakerClosed:
		tr.Instant(dev.Name, "breaker-closed")
	}
}
