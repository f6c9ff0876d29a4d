package canbus

import (
	"runtime"
	"sync"
	"testing"
)

// TestNodeAcceptFilter: a filtered node is handed only its own
// identifier, each rejected frame holds a receive-queue slot until
// TakeRejected, and the plain node and the tap on the same bus still
// hear everything. The bus counts a rejected frame in Broadcast like a
// delivered one and gives the filtered node no copy to pin.
func TestNodeAcceptFilter(t *testing.T) {
	bus := NewBus(PrototypeRates)
	src := bus.Attach("src")
	filtered := bus.Attach("filtered")
	filtered.SetAcceptID(0x10)
	plain := bus.Attach("plain")
	tap := bus.Tap("tap")
	tap.SetAcceptID(0x10)
	ids := []uint32{0x10, 0x11, 0x10, 0x12, 0x13}
	for i, id := range ids {
		if _, err := src.Send(Frame{ID: id, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := filtered.Pending(); got != len(ids) {
		t.Fatalf("filtered node holds %d slots, want %d", got, len(ids))
	}
	for _, want := range []byte{0, 2} {
		f, ok := filtered.Receive()
		if !ok || f.ID != 0x10 || f.Data[0] != want {
			t.Fatalf("filtered node received %+v (%v), want frame %d of 0x10", f, ok, want)
		}
	}
	if _, ok := filtered.Receive(); ok {
		t.Fatal("filtered node received a foreign frame")
	}
	if got := filtered.Pending(); got != 3 {
		t.Fatalf("%d slots in use before TakeRejected, want the 3 rejected", got)
	}
	if got := filtered.TakeRejected(); got != 3 {
		t.Fatalf("TakeRejected = %d, want 3", got)
	}
	if got, again := filtered.Pending(), filtered.TakeRejected(); got != 0 || again != 0 {
		t.Fatalf("after TakeRejected: Pending %d, TakeRejected %d, want 0 and 0", got, again)
	}
	if plain.Pending() != len(ids) || tap.Pending() != len(ids) {
		t.Fatalf("plain node holds %d and tap %d frames, want %d each", plain.Pending(), tap.Pending(), len(ids))
	}
	if s := bus.Stats(); s.Broadcast != 2*len(ids) || s.RxOverflow != 0 {
		t.Fatalf("Broadcast %d, RxOverflow %d, want %d and 0", s.Broadcast, s.RxOverflow, 2*len(ids))
	}
}

// TestFilteredNodeConcurrent: one goroutine sends frames of the node's
// own and of foreign identifiers to a filtered node with a small
// receive bound, while another drains it the way an endpoint does —
// Receive until empty, then TakeRejected. Own frames arrive in order,
// and every frame sent is received, rejected or counted as an
// overflow, exactly once. Run under -race it checks the lock-free
// counters.
func TestFilteredNodeConcurrent(t *testing.T) {
	const frames = 5000
	bus := NewBus(PrototypeRates)
	src := bus.Attach("src")
	dst := bus.Attach("dst")
	dst.SetRxLimit(16)
	dst.SetAcceptID(0x100)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < frames; i++ {
			id := uint32(0x100)
			if i%3 != 0 {
				id = 0x200
			}
			if _, err := src.Send(seqFrame(id, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	received, rejected, last := 0, 0, -1
	drain := func() {
		for {
			f, ok := dst.Receive()
			if !ok {
				break
			}
			if seq := frameSeq(f); f.ID != 0x100 || seq <= last {
				t.Fatalf("received frame %d of 0x%x after frame %d", seq, f.ID, last)
			} else {
				last = seq
			}
			received++
		}
		rejected += dst.TakeRejected()
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			runtime.Gosched()
		}
		drain()
	}
	wg.Wait()
	drain()
	if got := received + rejected + dst.Overflow(); got != frames {
		t.Fatalf("received %d, rejected %d, overflowed %d: %d frames, want %d",
			received, rejected, dst.Overflow(), got, frames)
	}
	if s := bus.Stats(); s.Broadcast != received+rejected || s.RxOverflow != dst.Overflow() {
		t.Fatalf("Broadcast %d, RxOverflow %d; node received %d, rejected %d, overflowed %d",
			s.Broadcast, s.RxOverflow, received, rejected, dst.Overflow())
	}
}
