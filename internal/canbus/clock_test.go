package canbus

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// watchMonotone polls c from its own goroutine until the returned stop
// function is called, failing the test if Now ever decreases.
func watchMonotone(t *testing.T, c *Clock) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		last := c.Now()
		for {
			select {
			case <-done:
				return
			default:
			}
			now := c.Now()
			if now < last {
				t.Errorf("clock ran backwards: %v after %v", now, last)
				return
			}
			last = now
			runtime.Gosched()
		}
	}()
	return func() { close(done); <-exited }
}

// TestClockConcurrent: concurrent Advance calls all take effect,
// concurrent AdvanceTo calls settle on the largest target, and a
// concurrent reader never sees time run backwards.
func TestClockConcurrent(t *testing.T) {
	const workers, perWorker = 8, 2000
	t.Run("Advance", func(t *testing.T) {
		c := NewClock()
		stop := watchMonotone(t, c)
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m := 0; m < perWorker; m++ {
					c.Advance(1)
				}
			}()
		}
		wg.Wait()
		stop()
		if got := c.Now(); got != workers*perWorker {
			t.Errorf("clock at %d after %d unit advances", got, workers*perWorker)
		}
	})
	t.Run("AdvanceTo", func(t *testing.T) {
		c := NewClock()
		stop := watchMonotone(t, c)
		maxes := make([]time.Duration, workers)
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(k)))
				for m := 0; m < perWorker; m++ {
					target := time.Duration(rng.Int63n(1 << 40))
					if got := c.AdvanceTo(target); got < target {
						t.Errorf("AdvanceTo(%v) returned %v", target, got)
						return
					}
					if target > maxes[k] {
						maxes[k] = target
					}
				}
			}()
		}
		wg.Wait()
		stop()
		var want time.Duration
		for _, m := range maxes {
			if m > want {
				want = m
			}
		}
		if got := c.Now(); got != want {
			t.Errorf("clock at %v, want the largest target %v", got, want)
		}
	})
}
