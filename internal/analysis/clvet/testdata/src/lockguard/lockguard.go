// Testdata for the lockguard analyzer: fields annotated "guarded by
// <mu>" may only be accessed while the named mutex is held.
package lockguard

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

type registry struct {
	mu     sync.RWMutex
	counts map[string]int // guarded by mu
	name   string         // immutable after construction, unguarded
}

type wrapper struct {
	ctx *counter
	v   int // guarded by ctx.mu
}

type broken struct {
	n int // guarded by missing: want `guard path "missing" of field n does not resolve`
}

type notAMutex struct {
	lk int
	n  int // guarded by lk: want `guard path "lk" of field n does not resolve`
}

// newCounter constructs via composite literal: no selector, no report.
func newCounter() *counter {
	return &counter{n: 1}
}

// locked accesses under an explicit Lock/Unlock pair.
func (c *counter) locked() int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	return n
}

// deferred keeps the lock held to function exit.
func (c *counter) deferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// unlocked reads the guarded field with no lock held.
func (c *counter) unlocked() int {
	return c.n // want `field n is guarded by mu, which is not held here`
}

// afterUnlock accesses again after releasing.
func (c *counter) afterUnlock() int {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	return n + c.n // want `field n is guarded by mu, which is not held here`
}

// rlocked holds the read side of an RWMutex.
func (r *registry) rlocked(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.counts[k]
}

// wrongBase holds a different instance's mutex: the textual lock
// expression does not match the access base.
func transfer(a, b *counter) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	b.n-- // want `field n is guarded by mu, which is not held here; lock b\.mu first`
}

// hop resolves a multi-segment guard path through a sibling pointer.
func (w *wrapper) hop() int {
	w.ctx.mu.Lock()
	defer w.ctx.mu.Unlock()
	return w.v
}

// hopUnlocked misses the multi-segment lock.
func (w *wrapper) hopUnlocked() int {
	return w.v // want `field v is guarded by ctx\.mu, which is not held here; lock w\.ctx\.mu first`
}

// singleOwner documents a construction-phase access.
func singleOwner(c *counter) {
	//repute:allow lockguard -- c is not shared until returned
	c.n = 0
}
