// Package lockguard exercises the lockguard analyzer: positive cases
// touch annotated fields outside their critical section (including after
// an unlock, from a closure, and by letting the address escape), negative
// cases hold the documented mutex, use Locked-suffix helpers, or lock
// inside the closure.
package lockguard

import "sync"

type counter struct {
	mu sync.Mutex
	// n is the running total.
	//
	//lint:guarded-by mu
	n int
}

func (c *counter) bad() int {
	return c.n // want `guarded field "n" read without holding "c\.mu"`
}

func (c *counter) badWrite() {
	c.n++ // want `guarded field "n" written without holding "c\.mu"`
}

func (c *counter) good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) goodExplicitUnlock() int {
	c.mu.Lock()
	v := c.n
	c.mu.Unlock()
	return v
}

func (c *counter) badAfterUnlock() int {
	c.mu.Lock()
	c.mu.Unlock()
	return c.n // want `guarded field "n" read without holding "c\.mu"`
}

// badClosure escapes the critical section: the returned closure runs
// after the deferred unlock.
func (c *counter) badClosure() func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() {
		c.n++ // want `guarded field "n" written without holding "c\.mu"`
	}
}

func (c *counter) goodClosureLocksItself() func() {
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}
}

func (c *counter) badEscape() *int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &c.n // want `address of guarded field "n" escapes its critical section`
}

// addLocked is trusted: the Locked suffix documents that callers hold
// c.mu.
func (c *counter) addLocked(d int) {
	c.n += d
}

// badBranchJoin: every branch released the lock before the tail access.
func (c *counter) badBranchJoin(b bool) int {
	c.mu.Lock()
	if b {
		c.mu.Unlock()
	} else {
		c.mu.Unlock()
	}
	return c.n // want `guarded field "n" read without holding "c\.mu"`
}

func (c *counter) goodBranchHeld(b bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b {
		return c.n
	}
	return 0
}

type rw struct {
	mu sync.RWMutex
	//lint:guarded-by mu
	m map[string]int
}

func (r *rw) goodRead(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[k]
}

func (r *rw) badWriteUnderRLock(k string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.m[k] = 1 // want `guarded field "m" written while "r\.mu" is held for reading`
}

func (r *rw) goodWrite(k string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[k] = 1
}

// stateMu guards the package-level counter below.
var stateMu sync.Mutex

//lint:guarded-by stateMu
var state int

func badPkgVar() int {
	return state // want `guarded variable "state" read without holding "stateMu"`
}

func goodPkgVar() int {
	stateMu.Lock()
	defer stateMu.Unlock()
	return state
}

// A grouped var block with a spec-level directive, the site-registry
// pattern.
var (
	pairMu sync.Mutex
	//lint:guarded-by pairMu
	pair int
)

func badPair() int {
	return pair // want `guarded variable "pair" read without holding "pairMu"`
}

func goodPair() int {
	pairMu.Lock()
	defer pairMu.Unlock()
	return pair
}

// lazy is a field guarded by a package-level mutex rather than a
// sibling.
type lazy struct {
	//lint:guarded-by idxMu
	idx map[string]int
}

var idxMu sync.Mutex

func (l *lazy) good(k string) int {
	idxMu.Lock()
	defer idxMu.Unlock()
	return l.idx[k]
}

func (l *lazy) bad(k string) int {
	return l.idx[k] // want `guarded field "idx" read without holding "idxMu"`
}
