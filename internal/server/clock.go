package server

import (
	"sync"
	"time"
)

// Clock is the server's only source of wall time — event timestamps,
// request-latency measurement and the Retry-After estimator all read it.
// The simulator's wallclock contract (DESIGN.md §6) bans time.Now in
// library code because wall time in a result path breaks byte-identical
// replay; the server legitimately needs wall time for operational
// output, so it is injected here instead: cmd/tcsimd supplies the system
// clock (cmd/ is outside the wallclock analyzer's scope), tests supply a
// FakeClock, and internal/server itself stays wallclock-clean. Nothing a
// Clock returns ever enters a job's result payload.
type Clock interface {
	// Now returns the current wall time.
	Now() time.Time
}

// FakeClock is a manually advanced Clock for tests: time moves only when
// Advance is called, so event timestamps and latency observations are
// reproducible. Safe for concurrent use.
type FakeClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewFakeClock returns a FakeClock pinned at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake's current instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the fake clock forward by d.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}
