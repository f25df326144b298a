// Package lockguard exercises the critical-section rule: a lock is
// released in its own block on every exit, and nothing inside blocks.
package lockguard

import (
	"sync"
	"time"
)

// counter carries the mutexes the cases below lock.
type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	wg sync.WaitGroup
	n  int
}

// byPointer is the deferred form: no finding.
func (c *counter) byPointer() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// lockStraightLine is the ordinary critical section: no finding.
func lockStraightLine(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// leakOnBranch unlocks on the fall-through path but not on the early
// return.
func leakOnBranch(c *counter, cond bool) {
	c.mu.Lock() // want "lockguard: c.mu locked here is not released on every path; the exit on line 37"
	if cond {
		return
	}
	c.mu.Unlock()
}

// releaseThenReturn releases before its early return; what follows the
// release in that branch runs unlocked: no finding.
func releaseThenReturn(c *counter, cond bool, ch chan int) {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
		ch <- 1
		return
	}
	c.mu.Unlock()
}

// releasedElsewhere releases in a nested block only.
func releasedElsewhere(c *counter, cond bool) {
	c.mu.Lock() // want "lockguard: c.mu locked here is not released in the same block"
	if cond {
		c.mu.Unlock()
	}
}

// continueLeaves leaves a loop iteration with the lock held.
func continueLeaves(c *counter, xs []int) {
	for _, x := range xs {
		c.mu.Lock() // want "lockguard: c.mu locked here is not released on every path; the exit on line 67"
		if x < 0 {
			continue
		}
		c.n += x
		c.mu.Unlock()
	}
}

// loopInside breaks and continues a loop of its own section: no finding.
func loopInside(c *counter, xs []int) {
	c.mu.Lock()
	for _, x := range xs {
		if x < 0 {
			continue
		}
		if x > 9 {
			break
		}
		c.n += x
	}
	c.mu.Unlock()
}

// sendWhileHeld performs a channel send with the lock held.
func sendWhileHeld(c *counter, ch chan int) {
	c.mu.Lock()
	ch <- c.n // want "lockguard: channel send while c.mu is held"
	c.mu.Unlock()
}

// sleepUntilReturn sleeps under a lock its defer holds to the return.
func sleepUntilReturn(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		time.Sleep(time.Millisecond) // want "lockguard: time.Sleep while c.mu is held"
	}
}

// waitUnderRead waits on a WaitGroup under a read lock.
func waitUnderRead(c *counter) {
	c.rw.RLock()
	c.wg.Wait() // want "lockguard: (*sync.WaitGroup).Wait while c.rw is held"
	c.rw.RUnlock()
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

// selectBlocks waits on a select with no default under the lock.
func selectBlocks(c *counter, ch chan int) {
	c.mu.Lock()
	select { // want "lockguard: blocking select (no default clause) while c.mu is held"
	case v := <-ch:
		c.n = v
	}
	c.mu.Unlock()
}

// spawnWhileHeld hands the send to another goroutine, which blocks
// instead of this one: no finding.
func spawnWhileHeld(c *counter, ch chan int) {
	c.mu.Lock()
	go func() { ch <- 1 }()
	c.mu.Unlock()
}
