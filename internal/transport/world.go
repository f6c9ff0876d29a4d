package transport

import (
	"errors"
	"sync"
	"time"

	"repro/internal/canbus"
	"repro/internal/cantp"
)

// World is the single-threaded pump for one simulated network
// topology: the shared clock, every gateway bridging its segments and
// every endpoint attached to them. Endpoints block inside Send
// waiting for FlowControls; the world is how that wait makes progress
// — gateways forward queued frames, peers service their queues and
// answer, and simulated time only moves through AdvanceTo, stopping
// at each intermediate protocol timer.
//
// A world (and everything attached to it) must be driven from one
// goroutine at a time; distinct worlds are fully independent. This is
// the determinism contract of the chaos experiments: one goroutine,
// one seed, one reproducible fault and recovery trace.
type World struct {
	Clock *canbus.Clock

	// mu serializes whole conversations (see Acquire) — the pump
	// itself stays lock-free and single-threaded by contract.
	mu sync.Mutex

	gateways  []*canbus.Gateway
	agents    []Agent
	endpoints []*Endpoint
}

// Agent is a pump participant beyond gateways and endpoints — a
// scenario adversary, a background traffic source, any actor that
// reacts to frames or to the simulated clock. The world pumps agents
// every Run cycle (after gateways, before endpoints — a fixed order,
// part of the determinism contract) and treats NextDeadline like a
// protocol timer, so an agent can schedule future actions on the
// simulated clock and Step will stop there. Pump returns how much
// work the agent did (frames drained or injected, state flips); it
// must return 0 when idle or Run never reaches quiescence, and every
// decision it takes must be a function of observed frame content, the
// simulated clock and the agent's own seeded state — never of host
// scheduling — or it breaks the schedule-invariance guarantee of
// every measurement sharing its world.
type Agent interface {
	Pump() int
	NextDeadline() time.Duration
}

// Acquire takes the world's conversation lock. Higher-level drivers
// that may be called from multiple goroutines (fleet.NetCarrier under
// EstablishAll with parallelism > 1) hold it for a whole exchange, so
// concurrent handshakes over one fabric serialize instead of racing
// the unsynchronized endpoints. Scheduling still permutes the order
// in which whole attempts run; reproducibility at parallelism > 1
// additionally needs canbus's content-keyed impairment (fault
// decisions independent of cross-conversation interleaving) and
// per-attempt handshake randomness (fleet.Manager.SetHandshakeRand),
// under which every aggregate counter and the simulated clock are
// permutation-invariant.
func (w *World) Acquire() { w.mu.Lock() }

// Release drops the conversation lock.
func (w *World) Release() { w.mu.Unlock() }

// NewWorld creates a world around a clock (a nil clock gets created).
func NewWorld(clock *canbus.Clock) *World {
	if clock == nil {
		clock = canbus.NewClock()
	}
	return &World{Clock: clock}
}

// AddGateway registers a gateway with the pump loop.
func (w *World) AddGateway(g *canbus.Gateway) { w.gateways = append(w.gateways, g) }

// AddAgent registers an agent with the pump loop. Registration order
// is pump order; callers that register several agents must do so in a
// deterministic order (scenario builds them from the config slice).
func (w *World) AddAgent(a Agent) { w.agents = append(w.agents, a) }

func (w *World) addEndpoint(e *Endpoint) { w.endpoints = append(w.endpoints, e) }

// Run pumps gateways, agents and endpoints until the topology is
// quiescent — no queued frame anywhere that a pump would move. The
// pump's idle polls are lock-free loads: a round skips every idle
// endpoint — one whose node holds no frame, queued or rejected by its
// acceptance filter, and whose receiver has no transfer in progress,
// the state in which Service does nothing — and an idle gateway's Pump
// returns before taking its lock (see canbus.Gateway.Pump). Returns
// the number of frames moved.
func (w *World) Run() int {
	total := 0
	for {
		n := 0
		for _, g := range w.gateways {
			n += g.Pump()
		}
		for _, a := range w.agents {
			n += a.Pump()
		}
		for _, e := range w.endpoints {
			if !e.idle() {
				n += e.Service()
			}
		}
		if n == 0 {
			return total
		}
		total += n
	}
}

// nextTimer returns the earliest pending timer after now — endpoint
// protocol deadlines and gateway egress release times — or 0 when
// none is armed. It asks only endpoints whose receiver has a transfer
// in progress, since no other endpoint arms a timer, and each gateway
// answers with one atomic load of its kept release time.
func (w *World) nextTimer(now time.Duration) time.Duration {
	var min time.Duration
	for _, e := range w.endpoints {
		if !e.rx.Active() {
			continue
		}
		if dl := e.rx.Deadline(); dl > now && (min == 0 || dl < min) {
			min = dl
		}
	}
	for _, g := range w.gateways {
		if dl := g.NextDeadline(); dl > now && (min == 0 || dl < min) {
			min = dl
		}
	}
	for _, a := range w.agents {
		if dl := a.NextDeadline(); dl > now && (min == 0 || dl < min) {
			min = dl
		}
	}
	return min
}

// Step moves simulated time forward to the earliest pending endpoint
// timer (or to t when no timer comes first), fires the due timers and
// pumps the topology to quiescence. One step, so callers waiting on a
// protocol event can re-examine their state between timers instead of
// burning simulated time past the event.
func (w *World) Step(t time.Duration) {
	now := w.Clock.Now()
	if now >= t {
		return
	}
	step := t
	if nt := w.nextTimer(now); nt > 0 && nt < step {
		step = nt
	}
	w.Clock.AdvanceTo(step)
	for _, e := range w.endpoints {
		if e.rx.Active() {
			e.expire()
		}
	}
	w.Run()
}

// AdvanceTo moves simulated time forward to t, stopping at every
// intermediate timer so N_Cr expiries abandon stale transfers in
// order.
func (w *World) AdvanceTo(t time.Duration) {
	for w.Clock.Now() < t {
		w.Step(t)
	}
}

// Link is the retrying message channel between two endpoints of a
// world: ISO-TP recovers frame-level loss inside Endpoint.Send, and
// Deliver adds whole-message retransmission on top for the losses
// ISO-TP cannot see (a lost ConsecutiveFrame abandons the transfer at
// the receiver with nothing to tell the sender, whose one FlowControl
// cleared every ConsecutiveFrame). Deliver waits 2 s of simulated time
// for a sent message to complete before it resends.
type Link struct {
	World *World

	// MaxResend caps whole-message retransmissions (default 2).
	MaxResend int
}

// responseTimeout bounds Deliver's wait for a sent message to complete
// at the destination before a resend. It outlasts the receiver's 1 s
// N_Cr, so a partial transfer is abandoned before the resend arrives.
const responseTimeout = 2 * time.Second

// ErrDeliveryFailed is returned when a message could not be completed
// at the destination within the resend budget.
var ErrDeliveryFailed = errors.New("transport: delivery failed after resend budget")

func (l *Link) maxResend() int {
	if l.MaxResend > 0 {
		return l.MaxResend
	}
	return 2
}

// Deliver sends m from src until it completes at dst, resending the
// whole message (after letting dst's N_Cr lapse clean any partial
// state) up to MaxResend times. It returns the message as received.
// Both endpoints must belong to the link's world.
func (l *Link) Deliver(src, dst *Endpoint, m Message) (Message, error) {
	var lastErr error
	for attempt := 0; attempt <= l.maxResend(); attempt++ {
		if attempt > 0 {
			src.stats.MessageResends++
			src.accountResend(m.OpCode)
		}
		if _, err := src.Send(m); err != nil {
			lastErr = err
			// An Overflow verdict is a capacity statement, not noise;
			// resending the same message cannot succeed.
			if errors.Is(err, cantp.ErrFlowOverflow) {
				return Message{}, err
			}
			continue
		}
		// Everything from here to completion is transit, not
		// transmission: the sender is done, and any simulated time that
		// passes is the fabric releasing gated frames. Charge it to the
		// message's step as queueing delay when the delivery completes.
		sent := l.World.Clock.Now()
		l.World.Run()
		if got, err := dst.Poll(); err == nil {
			src.accountQueueDelay(m.OpCode, l.World.Clock.Now()-sent)
			return got, nil
		}
		// Nothing completed yet: the tail of the transfer is either
		// gated behind a congested gateway's egress queue or died on
		// the wire. Advance toward the response deadline one timer at
		// a time, polling after each step, so a merely-delayed message
		// surfaces the moment its last frame is released rather than
		// after the full timeout; only a genuinely lost tail burns the
		// whole budget (letting the destination's N_Cr lapse clean any
		// partial state) and forces a resend.
		deadline := l.World.Clock.Now() + responseTimeout
		for l.World.Clock.Now() < deadline {
			l.World.Step(deadline)
			if got, err := dst.Poll(); err == nil {
				src.accountQueueDelay(m.OpCode, l.World.Clock.Now()-sent)
				return got, nil
			}
		}
		lastErr = ErrDeliveryFailed
	}
	if lastErr == nil {
		lastErr = ErrDeliveryFailed
	}
	return Message{}, lastErr
}
