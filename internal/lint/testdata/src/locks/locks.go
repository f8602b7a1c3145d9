// Package locks exercises the locks analyzer: Lock calls with no
// reachable Unlock and RLock-to-Lock upgrades are flagged; paired
// lock/unlock (direct or deferred) is not.
package locks

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

// LeakLock acquires without any reachable release.
func LeakLock(c *Counter) {
	c.mu.Lock() // want "has no c.mu.Unlock"
	c.n++
}

// Upgrade attempts the RWMutex read-to-write upgrade deadlock.
func Upgrade(mu *sync.RWMutex, n *int) {
	mu.RLock()
	if *n == 0 {
		mu.Lock() // want "RWMutex cannot upgrade"
		*n = 1
		mu.Unlock()
	}
	mu.RUnlock()
}

// Deferred is the sanctioned pattern.
func Deferred(c *Counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Paired releases explicitly on every path.
func Paired(c *Counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// PointerParam passes the lock-bearing struct correctly.
func PointerParam(c *Counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
