// Package lockguard exercises the lock-lifecycle analyzer: leaks on a
// branch and blocking operations under a held lock.
package lockguard

import (
	"sync"
	"time"
)

// counter carries the mutex the cases below lock.
type counter struct {
	mu sync.Mutex
	n  int
}

// byPointer is the correct form: no finding.
func (c *counter) byPointer() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// leakOnBranch unlocks on the fall-through path but not on the early
// return.
func leakOnBranch(c *counter, cond bool) {
	c.mu.Lock() // want "lockguard: c.mu locked here is not released on every path"
	if cond {
		return
	}
	c.mu.Unlock()
}

// sendWhileHeld performs a channel send with the lock held.
func sendWhileHeld(c *counter, ch chan int) {
	c.mu.Lock()
	ch <- c.n // want "lockguard: channel send while c.mu is held"
	c.mu.Unlock()
}

// napper blocks directly; callers inherit the summary through the
// package call graph.
func napper() { time.Sleep(time.Millisecond) }

// callsBlockerHeld calls a same-package blocking function under the
// lock.
func callsBlockerHeld(c *counter) {
	c.mu.Lock()
	napper() // want "lockguard: call to napper (which may block) while c.mu is held"
	c.mu.Unlock()
}

// selectDefaultOK sends under the lock only through a select with a
// default clause, which cannot block: no finding.
func selectDefaultOK(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case ch <- c.n:
	default:
	}
}

// lockStraightLine is the ordinary critical section: no finding.
func lockStraightLine(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}
