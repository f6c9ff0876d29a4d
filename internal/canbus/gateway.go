package canbus

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Gateway bridges CAN segments the way an automotive central gateway
// does: it owns one port (a regular bus node) per attached segment and
// forwards frames between them under per-direction identifier filters,
// charging a store-and-forward latency per forwarded frame.
//
// Forwarding is pull-based: Pump drains every port's receive queue and
// re-transmits matching frames on the destination segments. The
// single-threaded experiment drivers pump gateways between protocol
// steps (see transport.World), which keeps multi-hop delivery order —
// and therefore seeded impairment decisions — deterministic.
//
// Delayed transmission — store-and-forward latency and egress rate
// limiting alike — is modelled as a per-port fair-queuing scheduler
// rather than a shared FIFO: every conversation flow (CAN identifier)
// owns a private queue and a virtual clock, each admitted frame gets a
// release tag computed from its own flow's state only, and the port
// releases whichever due frame carries the globally minimal tag. Two
// properties follow. Same-identifier order is preserved (tags are
// monotone within a flow), and the release schedule is a pure function
// of frame content and admission times on the simulated clock — one
// conversation's backlog never shifts another conversation's release
// times, so concurrent experiment drivers that permute the order of
// whole conversations reproduce bit-identical schedules. The shared
// FIFO this replaces coupled flows through a single next-transmit time
// and through arrival order, which made any scenario combining egress
// congestion with parallelism > 1 schedule-dependent.
//
// Loops are prevented by construction twice over: a frame forwarded
// onto a segment is transmitted from the gateway's own port there, so
// that port never hears its own forward; and routes are directional
// with explicit filters, so a bridged frame only continues along
// routes whose filter admits its identifier.
//
// A gateway keeps its next release time — the earliest time a frame
// scheduled on an up port may leave, a shared port's frames no earlier
// than its next rate slot — up to date wherever its schedule changes:
// when a frame becomes a flow's head, when frames are released, and in
// SetEgress and SetLinkUp. NextDeadline is therefore one atomic load,
// and a Pump with nothing to do returns without taking the gateway's
// lock, just as an idle endpoint costs a world round two atomic loads.
type Gateway struct {
	name  string
	clock *Clock

	// The lock-free view read by NextDeadline and an idle Pump: the
	// port nodes in port order, republished whole whenever a port is
	// attached, and the kept release time, stored under mu by every
	// schedule change (noRelease when nothing up is scheduled).
	nodes   atomic.Pointer[[]*Node]
	release atomic.Int64

	mu     sync.Mutex
	ports  []*gatewayPort
	routes []gatewayRoute
	stats  GatewayStats
}

// noRelease is the kept release time of a schedule holding nothing:
// later than any simulated time, so an idle check is one comparison,
// and distinct from a frame due at time 0.
const noRelease = time.Duration(math.MaxInt64)

// GatewayStats counts forwarding activity.
type GatewayStats struct {
	Forwarded     int           // frames re-transmitted onto another segment
	Filtered      int           // frames drained but admitted by no route
	ForwardFailed int           // re-transmissions no receiver accepted (invalid for the destination segment, or every RX queue full)
	EgressQueued  int           // frames that entered a port's release schedule instead of leaving within the pump that drained them
	StoreTime     time.Duration // cumulative store-and-forward latency charged to forwarded frames
	EgressDropped int           // frames lost to a full per-flow egress queue
	PartitionDrop int           // frames lost at a severed port (heard on it or routed toward it while the link was down)
}

// EgressPolicy models a congested gateway port: a transmit rate limit
// and a bounded egress queue. The zero policy is the uncongested
// default — frames are re-transmitted within the pump that drained
// them (after any route latency), exactly the pre-egress behaviour.
type EgressPolicy struct {
	// Rate caps frames per simulated second leaving this port; 0 means
	// unlimited. By default the cap is enforced per conversation flow
	// (CAN identifier) by the fair-queuing scheduler: a rate-limited
	// flow's frames release on the simulated clock, one every 1/Rate
	// seconds of that flow's own virtual time — independent of other
	// flows' backlogs, which is what keeps concurrent scenarios
	// schedule-invariant. With Shared set the same Rate instead caps
	// the port's aggregate throughput.
	Rate float64
	// Queue bounds the egress backlog of each conversation flow on a
	// rate-limited port; a frame admitted by a route while its flow's
	// queue is full is dropped and counted in EgressDropped. 0 means
	// unbounded. Without a rate limit the bound is inert — an
	// unlimited-rate flow never builds a rate backlog to bound.
	Queue int
	// Shared selects the shared-capacity start-time-fair-queuing
	// variant: virtual time advances at the port rate, not per flow,
	// so Rate caps the port's aggregate throughput and k backlogged
	// flows divide it fairly (each gets ~Rate/k) instead of each
	// owning a private Rate (which let k flows emit k×Rate through
	// one physical port). The trade is physical honesty for schedule
	// invariance: shared capacity couples flows by design, so the
	// release schedule depends on which conversations are backlogged
	// when — drivers that permute whole-conversation admission order
	// (EstablishAll parallelism > 1) are rejected by scenario
	// validation in this mode. Without a Rate the flag is inert.
	Shared bool
}

// limited reports whether the policy gates transmission at all. Only
// a rate limit gates: a queue bound alone never engages, because an
// unlimited-rate port has no backlog to bound.
func (p EgressPolicy) limited() bool { return p.Rate > 0 }

// gap returns the per-frame serialization interval of the rate limit.
func (p EgressPolicy) gap() time.Duration {
	if p.Rate <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / p.Rate)
}

// flowKey identifies one conversation flow through a port. CAN frames
// of one identifier belong to one conversation (the physical bus
// guarantees their relative order), so the identifier is the
// fair-queuing flow key.
type flowKey struct {
	id  uint32
	ext bool
}

// gatedFrame is one scheduled release: the frame and its tag on the
// simulated clock.
type gatedFrame struct {
	frame Frame
	due   time.Duration
}

// egressFlow is one conversation's private release queue and virtual
// clock. vnext is the earliest tag the flow's next admitted frame may
// carry: admission sets due = max(eligible, vnext), then advances
// vnext to due (plus the rate gap on a per-flow-limited port), so tags
// are monotone within the flow and computed from the flow's own
// history only. On a shared-capacity port vnext carries eligibility
// alone (no per-flow pacing) and fin is the flow's virtual finish tag
// in the port's start-time fair queuing: serving a frame sets
// S = max(port.vtime, fin), fin = S+1 — unit cost per frame, since
// CAN frames are near-constant size.
type egressFlow struct {
	key   flowKey
	queue fifo[gatedFrame]
	vnext time.Duration
	fin   uint64
}

type gatewayPort struct {
	bus  *Bus
	node *Node

	// down marks a severed link (SetLinkUp(bus, false)): frames heard
	// on the port are discarded instead of routed, frames routed toward
	// it are discarded instead of scheduled, and frames already sitting
	// in its release schedule are held — they flood out on heal, the
	// store-and-forward burst a real gateway produces when a link comes
	// back.
	down bool

	policy EgressPolicy
	flows  []*egressFlow // admission order; release order is by tag

	// Shared-capacity scheduler state (policy.Shared): nextTx is the
	// earliest simulated time the port may transmit again (advances by
	// the rate gap per released frame, regardless of flow), vtime the
	// port's virtual time — the start tag of the most recently served
	// frame, which is what a newly backlogged flow's first tag is
	// clamped to so it neither starves nor is starved.
	nextTx time.Duration
	vtime  uint64

	// release is the port's earliest release time (scan), down or not;
	// emit lowers it, and drainEgress and SetEgress recompute it.
	release time.Duration
}

// shared reports whether the port runs the shared-capacity scheduler.
func (p *gatewayPort) shared() bool { return p.policy.limited() && p.policy.Shared }

// releaseAt returns when a flow's head frame may leave the port: its
// release tag, or on a shared-capacity port the port's next rate slot
// when that comes later. The flow must hold a frame.
func (p *gatewayPort) releaseAt(fl *egressFlow) time.Duration {
	due := fl.queue.front().due
	if p.shared() && p.nextTx > due {
		due = p.nextTx
	}
	return due
}

// scan returns the earliest releaseAt over the port's backlogged
// flows, or noRelease when none holds a frame.
func (p *gatewayPort) scan() time.Duration {
	earliest := noRelease
	for _, fl := range p.flows {
		if fl.queue.len() > 0 {
			earliest = min(earliest, p.releaseAt(fl))
		}
	}
	return earliest
}

// flow returns (creating on demand) the port's scheduler state for a
// frame's conversation.
func (p *gatewayPort) flow(f Frame) *egressFlow {
	k := flowKey{id: f.ID, ext: f.Extended}
	for _, fl := range p.flows {
		if fl.key == k {
			return fl
		}
	}
	fl := &egressFlow{key: k}
	p.flows = append(p.flows, fl)
	return fl
}

// backlog returns the frame's flow state only if it holds queued
// frames (nil otherwise, without allocating flow state).
func (p *gatewayPort) backlog(f Frame) *egressFlow {
	k := flowKey{id: f.ID, ext: f.Extended}
	for _, fl := range p.flows {
		if fl.key == k && fl.queue.len() > 0 {
			return fl
		}
	}
	return nil
}

type gatewayRoute struct {
	from, to *gatewayPort
	filter   func(Frame) bool
	latency  time.Duration
}

// NewGateway creates a gateway. The clock (may be nil) schedules
// store-and-forward and egress releases; without one there is no
// timekeeping to gate on and every forward is immediate.
func NewGateway(name string, clock *Clock) *Gateway {
	g := &Gateway{name: name, clock: clock}
	g.release.Store(int64(noRelease))
	return g
}

// Name returns the gateway's name.
func (g *Gateway) Name() string { return g.name }

// Stats returns a snapshot of the forwarding counters.
func (g *Gateway) Stats() GatewayStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// port returns (attaching on demand) the gateway's node on a bus.
func (g *Gateway) port(bus *Bus) *gatewayPort {
	for _, p := range g.ports {
		if p.bus == bus {
			return p
		}
	}
	p := &gatewayPort{bus: bus, node: bus.Attach(fmt.Sprintf("%s:port%d", g.name, len(g.ports))), release: noRelease}
	g.ports = append(g.ports, p)
	nodes := make([]*Node, len(g.ports))
	for i, p := range g.ports {
		nodes[i] = p.node
	}
	g.nodes.Store(&nodes)
	return p
}

// publish stores the gateway's kept release time: the earliest
// release time of any up port (a severed port's schedule is held, so
// it arms no timer). Callers hold mu and call it after every schedule
// change.
func (g *Gateway) publish() {
	earliest := noRelease
	for _, p := range g.ports {
		if !p.down {
			earliest = min(earliest, p.release)
		}
	}
	g.release.Store(int64(earliest))
}

// SetEgress installs an egress policy on the gateway's port for a
// bus (attaching the port on demand), modelling a congested central
// gateway whose outbound link to that segment backs up. The zero
// policy restores immediate forwarding; frames already scheduled keep
// their release tags.
func (g *Gateway) SetEgress(bus *Bus, p EgressPolicy) error {
	if bus == nil {
		return errors.New("canbus: egress policy needs a bus")
	}
	if p.Rate < 0 || p.Queue < 0 {
		return errors.New("canbus: negative egress policy")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	port := g.port(bus)
	port.policy = p
	// Entering or leaving shared capacity adds or drops the rate-slot
	// clamp on every queued frame's release time.
	port.release = port.scan()
	g.publish()
	return nil
}

// SetLinkUp marks the gateway's port on a bus up (the default) or
// down, modelling a severed harness connector or a failed transceiver.
// While the link is down the port neither routes frames it hears nor
// accepts frames routed toward it — both are discarded and counted in
// PartitionDrop — but frames already in the port's release schedule
// are held and flood out after heal. The flip itself is free of
// scheduling nondeterminism: partition adversaries drive it from the
// simulated clock, so a severed window is a pure function of the
// scenario definition. It is an error to name a bus the gateway has no
// port on.
func (g *Gateway) SetLinkUp(bus *Bus, up bool) error {
	if bus == nil {
		return errors.New("canbus: SetLinkUp needs a bus")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.ports {
		if p.bus == bus {
			p.down = !up
			g.publish()
			return nil
		}
	}
	return fmt.Errorf("canbus: gateway %s has no port on that bus", g.name)
}

// EgressBacklog returns the number of frames scheduled for later
// release on the port for a bus — rate-gated and store-latency-gated
// alike (0 when the port does not exist or holds nothing).
func (g *Gateway) EgressBacklog(bus *Bus) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.ports {
		if p.bus == bus {
			n := 0
			for _, fl := range p.flows {
				n += fl.queue.len()
			}
			return n
		}
	}
	return 0
}

// Route adds a one-way forwarding rule: frames heard on from whose
// identifier passes filter (nil admits everything) are re-transmitted
// on to, after latency of store-and-forward delay. Call twice with
// swapped buses — typically with different filters — for a
// bidirectional bridge.
func (g *Gateway) Route(from, to *Bus, filter func(Frame) bool, latency time.Duration) error {
	if from == nil || to == nil {
		return errors.New("canbus: gateway route needs two buses")
	}
	if from == to {
		return errors.New("canbus: gateway route cannot loop a bus onto itself")
	}
	if latency < 0 {
		return errors.New("canbus: negative gateway latency")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.routes = append(g.routes, gatewayRoute{
		from:    g.port(from),
		to:      g.port(to),
		filter:  filter,
		latency: latency,
	})
	return nil
}

// Pump drains every port, forwards (or schedules) matching frames and
// releases scheduled frames that are due on the simulated clock. It
// returns the number of frames moved — drained from a port or
// released from a schedule. Callers loop until it returns 0 to reach
// quiescence; a frame forwarded onto a segment watched by another
// gateway is picked up by that gateway's next Pump, so chained
// segments need a pump loop over all gateways (see transport.World).
// Frames still gated behind a store latency or rate limit do not
// count as movement; their release time is exposed through
// NextDeadline so the world's timer loop can advance to it.
//
// A Pump with nothing to do — no frame in any port's receive queue,
// and the kept release time later than now — returns 0 after a few
// atomic loads, without taking the gateway's lock.
func (g *Gateway) Pump() int {
	if g.idle() {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	moved := 0
	for _, p := range g.ports {
		for {
			f, ok := p.node.Receive()
			if !ok {
				break
			}
			moved++
			if p.down {
				// A severed link hears nothing: the frame reached the
				// transceiver but the gateway never saw it.
				g.stats.PartitionDrop++
				continue
			}
			matched := false
			for _, r := range g.routes {
				if r.from != p {
					continue
				}
				if r.filter != nil && !r.filter(f) {
					continue
				}
				matched = true
				g.stats.StoreTime += r.latency
				g.emit(r.to, f, r.latency)
			}
			if !matched {
				g.stats.Filtered++
			}
		}
	}
	for _, p := range g.ports {
		moved += g.drainEgress(p)
	}
	g.publish()
	return moved
}

// idle reports whether Pump would move nothing, reading only atomics
// and the published node list: no port node holds a frame, and no
// frame on an up port is due yet. Port nodes carry no acceptance
// filter, so Pending counts queued frames only.
func (g *Gateway) idle() bool {
	if time.Duration(g.release.Load()) <= g.clock.Now() {
		return false
	}
	if nodes := g.nodes.Load(); nodes != nil {
		for _, n := range *nodes {
			if n.Pending() > 0 {
				return false
			}
		}
	}
	return true
}

// emit puts a routed frame onto the destination port. Store-and-
// forward latency is charged per frame as a scheduled release — never
// as a shared-clock advance, so unrelated frames drained in the same
// pump do not inflate each other's timestamps. A frame with nothing to
// wait for (zero latency, unlimited rate, no flow backlog to stay
// behind) goes straight to the wire within this pump, exactly the
// pre-scheduler behaviour; everything else is tagged by its flow's
// virtual clock and queued for drainEgress.
func (g *Gateway) emit(p *gatewayPort, f Frame, latency time.Duration) {
	if p.down {
		// The outbound link is severed: the frame is lost in transit,
		// exactly as if the harness were cut mid-hop.
		g.stats.PartitionDrop++
		return
	}
	if g.clock == nil {
		// No timekeeping: nothing to gate on, forward immediately.
		g.forward(p, f)
		return
	}
	if !p.policy.limited() && latency == 0 && p.backlog(f) == nil {
		g.forward(p, f)
		return
	}
	fl := p.flow(f)
	if p.policy.limited() && p.policy.Queue > 0 && fl.queue.len() >= p.policy.Queue {
		g.stats.EgressDropped++
		return
	}
	due := g.clock.Now() + latency
	if fl.vnext > due {
		due = fl.vnext
	}
	fl.vnext = due
	if p.policy.limited() && !p.policy.Shared {
		// Per-flow pacing: the flow's own virtual clock spaces its
		// frames one rate gap apart. A shared-capacity port paces at
		// release time instead (nextTx), so due stays pure eligibility.
		fl.vnext = due + p.policy.gap()
	}
	fl.queue.push(gatedFrame{frame: f, due: due})
	if fl.queue.len() == 1 {
		// A new head frame: the only way admission moves the schedule.
		p.release = min(p.release, p.releaseAt(fl))
	}
	g.stats.EgressQueued++
}

// drainEgress releases every scheduled frame that is due at the
// current simulated time. On a per-flow port, smallest release tag
// first (ties broken by flow identifier, so release order never
// depends on admission interleaving); on a shared-capacity port the
// port transmits at most once per rate gap (nextTx) and picks among
// eligible flows by start-time fair queuing — smallest virtual finish
// tag, identifier as the tie-break. Returns the number of frames
// released. Releasing a frame occupies the destination wire and may
// advance the clock, which can make further frames due within the
// same drain.
func (g *Gateway) drainEgress(p *gatewayPort) int {
	if g.clock == nil || p.down {
		// A severed port holds its schedule: releases resume on heal.
		return 0
	}
	sent := 0
	for {
		now := g.clock.Now()
		if p.shared() && p.nextTx > now {
			break
		}
		var best *egressFlow
		for _, fl := range p.flows {
			if fl.queue.len() == 0 || fl.queue.front().due > now {
				continue
			}
			if best == nil || p.serveBefore(fl, best) {
				best = fl
			}
		}
		if best == nil {
			break
		}
		f := best.queue.pop().frame
		if p.shared() {
			s := p.vtime
			if best.fin > s {
				s = best.fin
			}
			best.fin = s + 1
			p.vtime = s
			if p.nextTx < now {
				p.nextTx = now
			}
			p.nextTx += p.policy.gap()
		}
		g.forward(p, f)
		sent++
	}
	if sent > 0 {
		// Releases replaced head frames and, on a shared port, moved
		// the next rate slot.
		p.release = p.scan()
	}
	return sent
}

// serveBefore orders two release-eligible flows. Per-flow mode: the
// earlier head release tag wins. Shared-capacity mode: the smaller
// start tag max(port virtual time, flow finish tag) wins — with the
// port term common to both flows, that is the smaller finish tag,
// which alternates backlogged flows and clamps a newly active flow to
// the port's present rather than its past. The identifier is the
// deterministic tie-break either way.
func (p *gatewayPort) serveBefore(a, b *egressFlow) bool {
	if p.shared() {
		af, bf := a.fin, b.fin
		if af < p.vtime {
			af = p.vtime
		}
		if bf < p.vtime {
			bf = p.vtime
		}
		if af != bf {
			return af < bf
		}
	} else if ad, bd := a.queue.front().due, b.queue.front().due; ad != bd {
		return ad < bd
	}
	if a.key.id != b.key.id {
		return a.key.id < b.key.id
	}
	return !a.key.ext && b.key.ext
}

// forward re-transmits a frame on the destination segment and counts
// the outcome: Forwarded when the wire took it (including frames the
// impairment layer then destroys — that loss belongs to the bus's
// Dropped counter), ForwardFailed when no receiver accepted it (the
// frame is invalid for the destination segment, or every receiver's
// RX queue overflowed). Before ForwardFailed existed such frames
// vanished with no counter moving at all.
func (g *Gateway) forward(p *gatewayPort, f Frame) {
	res, err := p.node.send(f)
	if err != nil || res.refused() {
		g.stats.ForwardFailed++
		return
	}
	g.stats.Forwarded++
}

// NextDeadline returns the earliest simulated time a scheduled frame
// becomes releasable — on a shared-capacity port no earlier than its
// next rate slot — or 0 when no up port holds a gated frame: nothing
// releases from a severed port, so its schedule arms no timer, and the
// heal (an adversary deadline) is what the world steps to. The world's
// timer loop (transport.World.Step) treats it like a protocol timer:
// time advances to it, then the pump releases the frame.
//
// It is one atomic load of the kept release time, with no lock and no
// scan of the ports' flows.
func (g *Gateway) NextDeadline() time.Duration {
	if r := time.Duration(g.release.Load()); r != noRelease {
		return r
	}
	return 0
}

// IDRange returns a frame filter admitting identifiers in [lo, hi].
func IDRange(lo, hi uint32) func(Frame) bool {
	return func(f Frame) bool { return f.ID >= lo && f.ID <= hi }
}

// IDSet returns a frame filter admitting exactly the listed
// identifiers.
func IDSet(ids ...uint32) func(Frame) bool {
	set := make(map[uint32]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return func(f Frame) bool { return set[f.ID] }
}
