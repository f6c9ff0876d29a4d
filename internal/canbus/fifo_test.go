package canbus

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
)

// seqFrame is a frame whose payload carries a sequence number.
func seqFrame(id uint32, seq int) Frame {
	data := make([]byte, 4)
	binary.LittleEndian.PutUint32(data, uint32(seq))
	return Frame{ID: id, Data: data}
}

func frameSeq(f Frame) int { return int(binary.LittleEndian.Uint32(f.Data)) }

// TestNodeQueueOrderAndBounds pushes 100k frames through one node at a
// steady depth of 1–3: order is exact FIFO, Pending tracks the true
// depth, a steady push/pop cycle allocates nothing, the backing array
// stays within a small multiple of the peak depth, and a drained queue
// references no payload.
func TestNodeQueueOrderAndBounds(t *testing.T) {
	const total, maxDepth = 100000, 3
	bus := NewBus(PrototypeRates)
	n := bus.Attach("n")
	frames := make([]Frame, total)
	for i := range frames {
		frames[i] = seqFrame(0x100, i)
	}
	sent, recv, maxCap := 0, 0, 0
	pop := func() {
		f, ok := n.Receive()
		if !ok {
			t.Fatalf("queue empty with %d frames outstanding", sent-recv)
		}
		if got := frameSeq(f); got != recv {
			t.Fatalf("received frame %d, want %d", got, recv)
		}
		recv++
	}
	for sent < total {
		for sent < total && sent-recv < maxDepth {
			if !n.enqueue(frames[sent]) {
				t.Fatalf("enqueue %d refused at depth %d", sent, sent-recv)
			}
			sent++
		}
		for sent-recv > 1 {
			pop()
		}
		if got := n.Pending(); got != sent-recv {
			t.Fatalf("Pending %d, true depth %d", got, sent-recv)
		}
		if c := cap(n.rx.buf); c > maxCap {
			maxCap = c
		}
	}
	for sent > recv {
		pop()
	}
	if got := n.Pending(); got != 0 {
		t.Fatalf("Pending %d after full drain", got)
	}
	if maxCap > 4*maxDepth {
		t.Errorf("backing array reached capacity %d for a peak depth of %d", maxCap, maxDepth)
	}
	for i, f := range n.rx.buf[:cap(n.rx.buf)] {
		if f.Data != nil {
			t.Errorf("slot %d of the drained queue still references a payload", i)
		}
	}

	f := frames[0]
	allocs := testing.AllocsPerRun(1000, func() {
		n.enqueue(f)
		n.enqueue(f)
		n.Receive()
		n.enqueue(f)
		n.Receive()
		n.Receive()
	})
	if allocs != 0 {
		t.Errorf("steady push/pop cycle allocates %.1f times per run, want 0", allocs)
	}
}

// TestEgressFlowQueueOrderAndBounds is the same check for one flow of
// a rate-limited gateway port: its release queue keeps FIFO order,
// stays small at a steady backlog and lets go of every frame once
// drained.
func TestEgressFlowQueueOrderAndBounds(t *testing.T) {
	const total, maxDepth = 20000, 3
	clock := NewClock()
	_, dstBus, gw, src, dst := egressPair(t, clock, EgressPolicy{Rate: 1000})
	sent, recv, maxCap := 0, 0, 0
	receive := func() {
		for {
			f, ok := dst.Receive()
			if !ok {
				return
			}
			if got := frameSeq(f); got != recv {
				t.Fatalf("released frame %d, want %d", got, recv)
			}
			recv++
		}
	}
	for sent < total {
		for sent < total && gw.EgressBacklog(dstBus) < maxDepth {
			if _, err := src.Send(seqFrame(0x100, sent)); err != nil {
				t.Fatal(err)
			}
			sent++
			gw.Pump()
		}
		clock.AdvanceTo(gw.NextDeadline())
		gw.Pump()
		receive()
		for _, p := range gw.ports {
			for _, fl := range p.flows {
				if c := cap(fl.queue.buf); c > maxCap {
					maxCap = c
				}
			}
		}
	}
	for gw.NextDeadline() > 0 {
		clock.AdvanceTo(gw.NextDeadline())
		gw.Pump()
	}
	receive()
	if recv != total {
		t.Fatalf("released %d of %d frames", recv, total)
	}
	if maxCap > 4*maxDepth {
		t.Errorf("flow queue reached capacity %d for a peak backlog of %d", maxCap, maxDepth)
	}
	for _, p := range gw.ports {
		for _, fl := range p.flows {
			for i, g := range fl.queue.buf[:cap(fl.queue.buf)] {
				if g.frame.Data != nil {
					t.Errorf("slot %d of the drained flow queue still references a payload", i)
				}
			}
		}
	}
}

// TestNodeQueueConcurrent: one goroutine sends sequence-numbered frames
// to an unbounded node while another receives and a third polls
// Pending. Every frame arrives exactly once and in order, and Pending
// never leaves [0, N].
func TestNodeQueueConcurrent(t *testing.T) {
	const frames = 5000
	bus := NewBus(PrototypeRates)
	src := bus.Attach("src")
	dst := bus.Attach("dst")
	dst.SetRxLimit(0)

	received := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < frames; i++ {
			if _, err := src.Send(seqFrame(0x100, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer close(received)
		for next := 0; next < frames; {
			f, ok := dst.Receive()
			if !ok {
				runtime.Gosched()
				continue
			}
			if got := frameSeq(f); got != next {
				t.Errorf("received frame %d, want %d", got, next)
				return
			}
			next++
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-received:
				return
			default:
			}
			if p := dst.Pending(); p < 0 || p > frames {
				t.Errorf("Pending read %d, outside [0, %d]", p, frames)
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	if p := dst.Pending(); p != 0 {
		t.Errorf("Pending %d after every frame was received", p)
	}
	if _, ok := dst.Receive(); ok {
		t.Error("a frame arrived twice")
	}
}
