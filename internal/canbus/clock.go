package canbus

import (
	"sync/atomic"
	"time"
)

// Clock is the simulated network time shared by buses, gateways and
// the transport layer. The experiments do not sleep: wire occupancy,
// gateway store-and-forward latency and protocol timeouts all advance
// this logical clock, which keeps impaired-network runs exactly
// reproducible under a fixed seed regardless of host scheduling.
//
// The time is one atomic word: Now is a load and every method is safe
// for concurrent use without a lock. The clock is monotone — no call
// ever moves it backwards, and concurrent Advance calls all take
// effect.
//
// A nil *Clock is a valid "no timekeeping" clock: every method is a
// cheap no-op returning zero, so the lossless fast path pays nothing.
type Clock struct {
	now atomic.Int64 // simulated nanoseconds
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(c.now.Load())
}

// Advance moves the clock forward by d (ignored when non-positive) and
// returns the new time.
func (c *Clock) Advance(d time.Duration) time.Duration {
	if c == nil {
		return 0
	}
	if d <= 0 {
		return time.Duration(c.now.Load())
	}
	return time.Duration(c.now.Add(int64(d)))
}

// AdvanceTo moves the clock forward to t; a t in the past is a no-op
// (simulated time never runs backwards). It returns the current time.
func (c *Clock) AdvanceTo(t time.Duration) time.Duration {
	if c == nil {
		return 0
	}
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return time.Duration(cur)
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}
