package cl

// Device health: a per-device circuit breaker and a simulated-time hang
// watchdog. Together they are the detection half of the fault-tolerance
// story — the typed taxonomy (errors.go) classifies a single failure,
// the breaker classifies the *device* from its failure history, and the
// watchdog turns a silent hang (an enqueue whose simulated duration
// blows past the cost model's expectation) into an ordinary typed fault
// the existing retry/failover machinery already knows how to recover.
//
// Every device has both from creation. Everything here is deterministic
// by construction: breaker transitions are driven by the per-device
// operation sequence (the same ordinal schedule fault plans count on)
// and by the scheduling decisions of Admit — never by wall-clock time or
// randomness — so a chaos run produces the same breaker history every
// time (pipedeterminism-clean).
//
// DESIGN.md §17 documents the state machine, the cooldown back-off and
// the watchdog threshold.

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// BreakerState is a circuit breaker's position: Closed (healthy,
// admitting work), HalfOpen (probing — the next batch is a canary) or
// Open (tripped — in-place retries stop, and schedulers pass the device
// over until its cooldown is over; see Admit).
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

// Health tuning, the same for every device: a decayed failure score of
// breakerTripScore opens the breaker — three transient faults in a row
// trip it, while isolated faults decay away between successes — and
// every successful operation multiplies the score by
// breakerSuccessDecay. The cooldown, in scheduling decisions, is one
// after a trip from closed and doubles with each failed canary, up to
// breakerMaxCooldown. An enqueue is killed by the hang watchdog when its
// simulated duration exceeds watchdogMultiple × the cost model's
// unthrottled expectation.
const (
	breakerTripScore    = 3
	breakerSuccessDecay = 0.5
	breakerMaxCooldown  = 64
	watchdogMultiple    = 8
)

// Breaker is a per-device circuit breaker: closed → open → half-open →
// closed. Transient faults (including watchdog terminations) feed a
// decaying failure score; device loss trips the breaker immediately; a
// half-open breaker re-closes on its first success (the canary passed)
// and re-opens on its first failure. All transitions are counted-not-
// clocked, so breaker history under a scheduled fault plan is exactly
// reproducible. The zero value is a closed breaker.
type Breaker struct {
	mu       sync.Mutex
	state    BreakerState // guarded by mu
	score    float64      // guarded by mu; decayed failure score
	cooldown int          // guarded by mu; decisions an open breaker sits out; 0 while closed
	waited   int          // guarded by mu; decisions that reached it since it opened
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
		b.cooldown = 0
		b.readmits++
		return b.state, true
	}
	return b.state, false
}

// RecordFailure feeds one failed device operation. Device loss trips the
// breaker immediately; transient faults (resource squeezes, watchdog
// terminations) raise the decaying score and trip it at the threshold; a
// failure in HalfOpen means the canary died and the breaker re-opens
// for twice the cooldown it last sat out. Non-transient, non-loss errors
// (host-program bugs like invalid work sizes) say nothing about device
// health and are ignored. Returns the resulting state and whether this
// call transitioned it.
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
		b.cooldown = min(max(2*b.cooldown, 1), breakerMaxCooldown)
		b.waited = 0
		b.trips++
		return b.state, true
	}
	return b.state, false
}

// Skipped records one scheduling decision that reached the device while
// its breaker was open — the cooldown is counted in these decisions
// rather than in seconds, so chaos runs stay deterministic. The decision
// that completes the cooldown half-opens the breaker and the device's
// next operation is the canary; earlier ones leave it open. Returns the
// resulting state and whether this call transitioned it.
func (b *Breaker) Skipped() (BreakerState, bool) { return b.pass(false) }

// admit half-opens an open breaker at once, mid-cooldown.
func (b *Breaker) admit() (BreakerState, bool) { return b.pass(true) }

// pass is Skipped, or admit when force is set.
func (b *Breaker) pass(force bool) (BreakerState, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		return b.state, false
	}
	if b.waited++; b.waited < b.cooldown && !force {
		return b.state, false
	}
	b.state = BreakerHalfOpen
	b.score = 0
	return b.state, true
}

// Breaker returns the device's circuit breaker.
func (d *Device) Breaker() *Breaker { return &d.breaker }

// BreakerState returns the device's breaker state.
func (d *Device) BreakerState() BreakerState { return d.breaker.State() }

// Admit is the one admission rule of both schedulers (core.Pipeline.Map
// and the serve partition allocator): one scheduling decision over the
// candidate devices devs, need of which must take work. It returns each device's breaker state after the decision; a device
// left Open is passed over, a Closed or HalfOpen one may take work. An
// open device counts the decision toward its cooldown (Skipped) and is
// half-opened, as a canary, once the cooldown is over. When fewer than
// need devices would be admitted, the open ones are half-opened at once,
// in order, until need are (or none is left open): a quarantined device
// never stalls a scheduler that has nothing else. A non-nil tr gets a
// "breaker-half-open" instant on each device the decision half-opened.
func Admit(devs []*Device, need int, tr *trace.Recorder) []BreakerState {
	states := make([]BreakerState, len(devs))
	admitted := 0
	decide := func(i int, step func() (BreakerState, bool)) {
		var opened bool
		if states[i], opened = step(); opened && tr != nil {
			tr.Instant(devs[i].Name, "breaker-half-open")
		}
		if states[i] != BreakerOpen {
			admitted++
		}
	}
	for i, d := range devs {
		decide(i, d.breaker.Skipped)
	}
	for i, d := range devs {
		if admitted < need && states[i] == BreakerOpen {
			decide(i, d.breaker.admit)
		}
	}
	return states
}

// feedBreaker feeds one operation outcome to dev's breaker and, on a
// state transition, emits a "breaker-open" or "breaker-closed" instant
// on the device's lane so quarantine and readmission are visible in
// traces and derivable as metrics
// (device_quarantined_total, device_readmitted_total). The enqueue path
// feeds both outcomes; the alloc path feeds failures only, so the
// successful bookkeeping allocations between kernel launches cannot
// decay away the score of a device whose kernels keep dying. Attr-free
// instants keep the hot path allocation-free.
//
//repute:hotpath
func feedBreaker(dev *Device, opErr error, tr *trace.Recorder) {
	b := &dev.breaker
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
