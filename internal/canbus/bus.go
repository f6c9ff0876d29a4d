package canbus

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Bus is an in-memory CAN-FD segment. Nodes attach with Attach and
// receive every frame transmitted by any other node (broadcast
// semantics, as on a physical bus). Transmission is serialized —
// the defining property of CAN — and each transmit returns the wire
// time the frame occupied, which the experiment harness adds to its
// simulated clock.
//
// The bus model is collision-free (CAN arbitration is non-destructive
// and the session protocols are strict request/response exchanges) but
// no longer loss-free: an installed Impairment deterministically
// drops, corrupts, duplicates or delays frames, which is what the
// timer- and retransmission-aware ISO-TP layer is tested against.
// Multi-segment topologies are built by bridging buses with Gateways.
type Bus struct {
	rates BitRates

	mu      sync.Mutex
	nodes   []*Node
	stats   Stats
	impair  *impairState
	clock   *Clock
	rxLimit int
	trace   func(FaultEvent)
}

// DefaultRxLimit bounds a node's receive queue unless overridden with
// Bus.SetRxLimit or Node.SetRxLimit. Real controllers expose a handful
// of RX mailboxes plus a driver ring; 1024 frames is a generous ring
// that still catches runaway senders.
const DefaultRxLimit = 1024

// Stats accumulates bus-level counters for the experiment reports.
type Stats struct {
	Frames    int           // frames transmitted
	Bytes     int           // payload bytes transmitted (unpadded)
	PadBytes  int           // padding added by DLC quantization
	WireTime  time.Duration // cumulative bus-busy time
	Broadcast int           // total frame deliveries (frames × receivers)

	// Impairment and queue-pressure counters.
	Dropped    int           // frames destroyed on the wire
	Corrupted  int           // frames delivered with a flipped bit
	Duplicated int           // frames delivered twice
	Delayed    int           // frames held for extra latency
	DelayTime  time.Duration // cumulative injected latency
	RxOverflow int           // deliveries lost to full receive queues
}

// Node is a bus endpoint with a bounded receive queue. It is safe for
// concurrent use. The queue's counters are atomic words, so a Receive
// that finds the queue empty, TakeRejected, Pending and the bus's
// rejection of a filtered frame never take the node's lock — the
// common case for a pump polling idle endpoints and for a segment
// full of other nodes' traffic. Every received frame carries private
// payload bytes: no other receiver, and not the sender, can see or
// change them.
//
// A node may carry a hardware acceptance filter (SetAcceptID), as a
// real controller does: the bus then neither copies nor queues a
// frame with another identifier for it, and only counts it as
// rejected. A rejected frame still holds a receive-queue slot until
// the owner's next full drain — Receive until it reports an empty
// queue, then TakeRejected — which is exactly how long it would have
// held one had the owner received and discarded it in software. The
// receive bound, Overflow and the bus's Broadcast and RxOverflow
// counters therefore read the same with the filter in the node as
// with the same filter applied by the owner.
type Node struct {
	bus     *Bus
	name    string
	monitor bool

	// The acceptance filter, read and written under the bus lock.
	filtered bool
	acceptID uint32

	// Frames only arrive through the bus's fan-out, under the bus
	// lock, so a bound check and the slot it grants never race another
	// arrival; the owner's Receive and TakeRejected only free slots.
	queued   atomic.Int32 // rx.len(), stored under mu after every change
	rejected atomic.Int32 // frames refused by the filter since the last TakeRejected
	rxLimit  atomic.Int64 // ≤ 0 means unbounded
	overflow atomic.Int64

	mu sync.Mutex // guards rx
	rx fifo[Frame]
}

// NewBus creates a bus with the given bit rates.
func NewBus(rates BitRates) *Bus {
	return &Bus{rates: rates, rxLimit: DefaultRxLimit}
}

// SetClock attaches a simulated clock; every transmitted frame's wire
// time (and any injected delay) advances it. A nil clock detaches.
func (b *Bus) SetClock(c *Clock) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clock = c
}

// Impair installs deterministic fault injection on the bus. Installing
// a zero-rate Impairment (or calling with all rates zero) still resets
// the per-identifier occurrence counters the content keys include, so
// a topology can be re-armed for a reproducibility re-run.
// ClearImpairment removes injection entirely.
func (b *Bus) Impair(cfg Impairment) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.impair = newImpairState(cfg)
}

// ClearImpairment removes fault injection.
func (b *Bus) ClearImpairment() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.impair = nil
}

// SetFaultTrace installs a hook invoked for every injected fault, in
// injection order (drop, corrupt, duplicate, delay — a frame can
// suffer several). The hook runs under the bus lock on the sending
// goroutine; it must not call back into the bus. A nil hook detaches.
// Golden-trace tests and the scenario engine's trace recorder use it
// to commit the exact fault sequence of a seeded run.
func (b *Bus) SetFaultTrace(fn func(FaultEvent)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trace = fn
}

// emitFault reports one injected fault to the trace hook, if any.
// Callers hold b.mu.
func (b *Bus) emitFault(f *Frame, roll impairRoll, kind FaultKind) {
	if b.trace == nil {
		return
	}
	b.trace(FaultEvent{
		Time:       b.clock.Now(),
		BusID:      b.impair.cfg.BusID,
		FrameID:    f.ID,
		Extended:   f.Extended,
		Occurrence: roll.occ,
		Kind:       kind,
	})
}

// SetRxLimit sets the receive-queue bound applied to nodes attached
// from now on (≤ 0 restores DefaultRxLimit).
func (b *Bus) SetRxLimit(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= 0 {
		n = DefaultRxLimit
	}
	b.rxLimit = n
}

// Attach adds a named node to the bus.
func (b *Bus) Attach(name string) *Node {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := &Node{bus: b, name: name}
	n.rxLimit.Store(int64(b.rxLimit))
	b.nodes = append(b.nodes, n)
	return n
}

// Tap attaches a promiscuous monitor node: it hears every delivered
// frame on the bus (post-impairment, exactly the bytes real receivers
// see — a dropped frame is invisible to the tap too, it died on the
// wire) with an unbounded receive queue, and it is excluded from
// every delivery counter — candidates, Broadcast, RxOverflow — so
// installing a tap never perturbs the measurements of the traffic it
// observes. That exclusion is a determinism obligation: scenario
// adversaries record through taps, and a benign run with and without
// a tap must produce byte-identical results. The returned node can
// still Send, which is the adversary's injection port.
func (b *Bus) Tap(name string) *Node {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := &Node{bus: b, name: name, monitor: true}
	b.nodes = append(b.nodes, n)
	return n
}

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Rates returns the configured bit rates.
func (b *Bus) Rates() BitRates { return b.rates }

// ErrNotAttached is returned when sending from a detached node.
var ErrNotAttached = errors.New("canbus: node not attached to a bus")

// Send validates the frame, pads its payload to a legal CAN-FD DLC
// length, applies any installed impairment, delivers it to every other
// node and returns the wire time. A dropped frame still returns its
// wire time — it occupied the bus — with a nil error; loss is visible
// only to the protocol layers above, exactly as on a real segment.
//
// Acceptance filtering happens here, in the fan-out: a receiver whose
// filter refuses the frame's identifier gets no copy, and the frame is
// only counted against that receiver's queue (see Node). It counts
// toward Broadcast, or toward RxOverflow when that queue is full, just
// as a queued copy would.
func (n *Node) Send(f Frame) (time.Duration, error) {
	res, err := n.send(f)
	return res.wire, err
}

// sendResult reports where a transmitted frame ended up, for callers
// (the gateway) that must account losses instead of shrugging them
// off.
type sendResult struct {
	wire       time.Duration
	candidates int  // receivers the frame was offered to
	accepted   int  // receivers that queued at least one copy
	dropped    bool // destroyed on the wire by impairment
}

// refused reports a delivery failure that is the receivers' doing
// rather than the wire's: at least one receiver existed, the wire
// delivered, and every receive queue was full.
func (r sendResult) refused() bool { return !r.dropped && r.candidates > 0 && r.accepted == 0 }

// send is the counted transmit path behind Send.
func (n *Node) send(f Frame) (sendResult, error) {
	if n.bus == nil {
		return sendResult{}, ErrNotAttached
	}
	rawLen := len(f.Data)
	padded, err := PadToDLC(rawLen)
	if err != nil {
		return sendResult{}, err
	}
	if padded != rawLen {
		data := make([]byte, padded)
		copy(data, f.Data)
		f.Data = data
	}
	if err := f.Validate(); err != nil {
		return sendResult{}, err
	}
	wt, err := f.WireTime(n.bus.rates)
	if err != nil {
		return sendResult{}, err
	}

	b := n.bus
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.Frames++
	b.stats.Bytes += rawLen
	b.stats.PadBytes += padded - rawLen
	b.stats.WireTime += wt
	b.clock.Advance(wt)
	res := sendResult{wire: wt}
	accepting := 0
	for _, peer := range b.nodes {
		if peer != n && !peer.monitor {
			res.candidates++
			if peer.accepts(f.ID) {
				accepting++
			}
		}
	}

	copies := 1
	var delivered []byte
	if b.impair != nil {
		roll := b.impair.roll(&f)
		if roll.drop {
			b.stats.Dropped++
			b.emitFault(&f, roll, FaultDrop)
			res.dropped = true
			return res, nil
		}
		if roll.corrupt {
			delivered = append([]byte(nil), f.Data...)
			corruptFrame(delivered, roll)
			b.stats.Corrupted++
			b.emitFault(&f, roll, FaultCorrupt)
		}
		if roll.duplicate {
			b.stats.Duplicated++
			b.emitFault(&f, roll, FaultDuplicate)
			copies = 2
		}
		if roll.delay {
			b.stats.Delayed++
			b.stats.DelayTime += b.impair.cfg.Delay
			b.clock.Advance(b.impair.cfg.Delay)
			b.emitFault(&f, roll, FaultDelay)
		}
	}
	if delivered == nil {
		delivered = f.Data
	}

	// One allocation backs every accepting receiver's copy. Each
	// copy's capacity ends at its own length, so no receiver can see
	// or append into another's bytes. A tap gets a private copy
	// instead: it may keep frames indefinitely and must not pin the
	// shared buffer.
	size := len(delivered)
	buf := make([]byte, copies*accepting*size)
	off := 0
	for c := 0; c < copies; c++ {
		for _, peer := range b.nodes {
			if peer == n {
				continue
			}
			out := Frame{ID: f.ID, Extended: f.Extended, BRS: f.BRS}
			if peer.monitor {
				// Monitor taps observe without participating: their
				// unbounded queues take every copy, and no delivery
				// counter moves — a tapped bus measures identically to
				// an untapped one.
				out.Data = append([]byte(nil), delivered...)
				peer.enqueue(out)
				continue
			}
			var ok bool
			if peer.accepts(f.ID) {
				out.Data = buf[off : off+size : off+size]
				copy(out.Data, delivered)
				off += size
				ok = peer.enqueue(out)
			} else {
				ok = peer.reject()
			}
			if ok {
				b.stats.Broadcast++
				res.accepted++
			} else {
				b.stats.RxOverflow++
			}
		}
	}
	return res, nil
}

// SetAcceptID installs a hardware acceptance filter: from now on the
// bus delivers the node only frames whose identifier is id, and counts
// every other frame as rejected (see Node for how rejected frames are
// accounted). A tap stays promiscuous whatever its filter.
func (n *Node) SetAcceptID(id uint32) {
	if n.bus != nil {
		n.bus.mu.Lock()
		defer n.bus.mu.Unlock()
	}
	n.filtered, n.acceptID = true, id
}

// accepts reports whether the acceptance filter passes an identifier.
// Callers hold the bus lock.
func (n *Node) accepts(id uint32) bool { return !n.filtered || id == n.acceptID }

// full reports whether every receive-queue slot is in use, by queued
// frames or by rejected ones the owner has not yet released. Callers
// hold the bus lock.
func (n *Node) full() bool {
	limit := n.rxLimit.Load()
	return limit > 0 && int64(n.queued.Load())+int64(n.rejected.Load()) >= limit
}

// enqueue appends a frame to the receive queue, dropping it (and
// counting the overflow) when the queue is full — the behaviour of a
// controller whose RX mailboxes are all occupied. Callers hold the bus
// lock.
func (n *Node) enqueue(f Frame) bool {
	if n.full() {
		n.overflow.Add(1)
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rx.push(f)
	n.queued.Store(int32(n.rx.len()))
	return true
}

// reject counts a frame the acceptance filter refused. It takes a
// receive-queue slot, and a full queue refuses it like any other
// frame. Callers hold the bus lock.
func (n *Node) reject() bool {
	if n.full() {
		n.overflow.Add(1)
		return false
	}
	n.rejected.Add(1)
	return true
}

// Receive pops the oldest queued frame, if any. On an empty queue it
// returns without taking the node's lock.
func (n *Node) Receive() (Frame, bool) {
	if n.queued.Load() == 0 {
		return Frame{}, false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rx.len() == 0 {
		return Frame{}, false
	}
	f := n.rx.pop()
	n.queued.Store(int32(n.rx.len()))
	return f, true
}

// TakeRejected returns how many frames the acceptance filter has
// refused since the last call and frees the receive-queue slots they
// held. An owner calls it once Receive has reported an empty queue,
// which completes the drain. It takes no lock.
func (n *Node) TakeRejected() int {
	if n.rejected.Load() == 0 {
		return 0
	}
	return int(n.rejected.Swap(0))
}

// Pending returns the number of receive-queue slots in use: the queued
// frames plus, on a filtered node, the rejected frames TakeRejected
// has not yet released — so a filtered node's owner drains with
// Receive until it reports an empty queue, not until Pending reads 0.
// It takes no lock.
func (n *Node) Pending() int { return int(n.queued.Load() + n.rejected.Load()) }

// SetRxLimit overrides this node's receive-queue bound (≤ 0 means
// unbounded — useful for measurement taps that must never lose).
func (n *Node) SetRxLimit(limit int) { n.rxLimit.Store(int64(limit)) }

// Overflow returns how many deliveries this node lost to a full queue.
func (n *Node) Overflow() int { return int(n.overflow.Load()) }

// Name returns the node's attach name.
func (n *Node) Name() string { return n.name }

// String renders the node for diagnostics and fault traces.
func (n *Node) String() string { return fmt.Sprintf("canbus.Node(%s)", n.name) }
