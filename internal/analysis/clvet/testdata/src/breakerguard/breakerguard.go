// Testdata for the lockguard analyzer over the device-health shapes of
// internal/cl and internal/serve: a miniature circuit breaker plus a
// partition allocator whose shared fields carry "guarded by" contracts.
// The buggy variants are the exact shortcuts a hot scheduling path
// invites — peeking at breaker state without the lock, flipping a busy
// flag after the release.
package breakerguard

import "sync"

type breakerState int

const (
	stateClosed breakerState = iota
	stateHalfOpen
	stateOpen
)

// breaker mirrors the three-state device circuit breaker: every
// mutable field shares one mutex.
type breaker struct {
	mu       sync.Mutex
	state    breakerState // guarded by mu
	score    float64      // guarded by mu; decayed failure score
	skips    int          // guarded by mu; pass-overs while open
	trips    int64        // guarded by mu; transitions into Open
	readmits int64        // guarded by mu; half-open canaries that closed it
}

// recordFailure is the well-behaved transition path.
func (b *breaker) recordFailure() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.score++
	if b.score >= 3 {
		b.state = stateOpen
		b.trips++
	}
	return b.state
}

// peekState is the tempting lock-free read a scheduler loop wants; the
// breaker state races with the worker flipping it.
func (b *breaker) peekState() breakerState {
	return b.state // want `field state is guarded by mu, which is not held here`
}

// decayAfterUnlock keeps mutating past the critical section.
func (b *breaker) decayAfterUnlock() {
	b.mu.Lock()
	b.score *= 0.5
	b.mu.Unlock()
	b.skips++ // want `field skips is guarded by mu, which is not held here`
}

// wrongBreaker holds its own lock while readmitting a peer.
func (b *breaker) wrongBreaker(peer *breaker) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = stateClosed
	peer.readmits++ // want `field readmits is guarded by mu, which is not held here; lock peer\.mu first`
}

// allocator mirrors the serve partition allocator: the busy set is the
// shared truth every dispatcher decision reads.
type allocator struct {
	mu   sync.Mutex
	busy []bool // guarded by mu
}

// acquire scans and claims under the lock.
func (a *allocator) acquire() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, taken := range a.busy {
		if !taken {
			a.busy[i] = true
			return i
		}
	}
	return -1
}

// release forgets the lock entirely — the classic partition double-grant.
func (a *allocator) release(i int) {
	a.busy[i] = false // want `field busy is guarded by mu, which is not held here`
}

// construct documents the single-owner escape hatch.
func construct(n int) *allocator {
	a := &allocator{}
	//repute:allow lockguard -- a is not shared until returned
	a.busy = make([]bool, n)
	return a
}
