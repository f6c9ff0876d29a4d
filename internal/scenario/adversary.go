package scenario

// The adversarial workload layer: pluggable attackers driven by the
// simulated clock, attached to a measurement point's private fabric
// through monitor taps (canbus.Bus.Tap) and gateway link control
// (canbus.Gateway.SetLinkUp). Every adversary is deterministic by
// construction — decisions are functions of observed frame content,
// the simulated clock and a per-adversary detrand stream, never of
// host scheduling — which is what keeps attack scenarios inside the
// serial==N-way byte-identical CI gate. The replay attacker
// additionally reuses internal/security's shared verdict helpers so
// the live end-to-end rejection evidence and the offline Table III
// analysis can never drift apart.

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/canbus"
	"repro/internal/cantp"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/fleet"
	"repro/internal/security"
	"repro/internal/transport"
)

// AdversaryKind names one concrete attacker.
type AdversaryKind string

const (
	// AdversaryReplay records handshake frames off a bus segment and
	// re-injects them verbatim against a fresh responder engine after
	// the workload, through the real transport/cantp stack. Every
	// replayed session must be rejected (accepted_replays is gated to
	// zero by ValidateJSON and the BENCH check).
	AdversaryReplay AdversaryKind = "replay"
	// AdversaryInject forges FlowControl (Wait/Overflow) and
	// out-of-sequence ConsecutiveFrame traffic mid-transfer, forcing
	// the ISO-TP recovery machinery to earn its keep.
	AdversaryInject AdversaryKind = "inject"
	// AdversaryBabble is the babbling-idiot node: it saturates one
	// segment at a configured frame rate so the fair-queuing gateway
	// must isolate the victim handshake flows.
	AdversaryBabble AdversaryKind = "babble"
	// AdversaryPartition severs one gateway link mid-workload and
	// heals it after a configured window, exercising fleet retry.
	AdversaryPartition AdversaryKind = "partition"
)

// AdversaryConfig declares one attacker inside a Scenario. The zero
// Intensity picks a kind-specific default; AxisAttack sweeps override
// Intensity for every configured adversary.
type AdversaryConfig struct {
	Kind AdversaryKind `json:"kind"`

	// Segment is the bus index the adversary operates on; negative
	// selects the kind's natural default (the last segment, except
	// babble which defaults to segment 0 so its frames must cross the
	// rate-limited gateways toward the victims). For partition it
	// selects the segment whose upstream gateway link is severed and
	// must be ≥ 1 (segment 0 has no upstream link).
	Segment int `json:"segment"`

	// Intensity is kind-specific: babble = frames per simulated
	// second; inject = forge probability per observed FirstFrame in
	// [0,1]; partition = heal window in simulated seconds; replay =
	// session cap (0 replays every recorded conversation).
	Intensity float64 `json:"intensity"`

	// Start delays the attack's onset past the workload start
	// (partition: sever delay, default 200µs; babble: first-emission
	// delay). Simulated time.
	Start time.Duration `json:"start_ns,omitempty"`
}

// AttackAccount is one adversary's accounting in a measurement point
// (schema v4). AcceptedReplays is serialized unconditionally: a zero
// there is the point's security verdict, not an absence of data.
type AttackAccount struct {
	Kind      AdversaryKind `json:"kind"`
	Segment   int           `json:"segment"`
	Intensity float64       `json:"intensity"`

	// InjectedFrames counts every frame the adversary put on a bus.
	InjectedFrames int `json:"injected_frames"`

	// Inject accounting.
	ForgedFlowControls int `json:"forged_flow_controls,omitempty"`
	ForgedConsecutives int `json:"forged_consecutives,omitempty"`

	// Replay accounting. Rejected sessions are split by layer:
	// rejected_auth is the cryptographic freshness verdict the paper
	// claims, rejected_protocol is the stack dying before a
	// cryptographic check (still rejected, weaker evidence).
	RecordedSessions int `json:"recorded_sessions,omitempty"`
	ReplayedSessions int `json:"replayed_sessions,omitempty"`
	RejectedAuth     int `json:"rejected_auth,omitempty"`
	RejectedProtocol int `json:"rejected_protocol,omitempty"`
	AcceptedReplays  int `json:"accepted_replays"`

	// Partition accounting.
	Partitions     int `json:"partitions,omitempty"`
	Heals          int `json:"heals,omitempty"`
	PartitionDrops int `json:"partition_drops,omitempty"`
}

// Surface is the slice of a measurement point's private fabric an
// adversary may touch: the world pump and clock, the segment buses
// (for taps and injection), the chain gateways (for link severing)
// and the victim parties/endpoints (the replay attacker drives a
// fresh responder engine through the real victim endpoint). Every
// field belongs to one point's isolated fabric, so adversaries on
// different sweep points never share state.
type Surface struct {
	World    *transport.World
	Clock    *canbus.Clock
	Buses    []*canbus.Bus
	Gateways []*canbus.Gateway
	Peers    []*core.Party
	Remotes  []*transport.Endpoint
	Seed     uint64
}

// Adversary is one live attacker on a point's fabric. Lifecycle:
// Attach wires taps and resolves targets, Arm starts the attack at a
// simulated instant, the world pumps it like any other agent
// (transport.Agent: Pump between gateways and endpoints, NextDeadline
// feeding the step scheduler), Disarm stops it at workload end, and
// Account reports its totals. Implementations must be deterministic:
// same fabric, same seed, same byte-identical account — that is the
// contract the adversarial CI gate enforces.
type Adversary interface {
	transport.Agent
	Kind() AdversaryKind
	Attach(sur *Surface) error
	Arm(now time.Duration)
	Disarm()
	Account() AttackAccount
}

// executor is the optional post-workload phase: the replay attacker
// re-injects its recordings only after the benign workload finished,
// so recording and attacking never interleave.
type executor interface {
	Execute(tr *tracer) error
}

// newAdversary builds one configured attacker. idx salts the
// adversary's private detrand stream so two attackers of the same
// kind never share randomness.
func newAdversary(cfg AdversaryConfig, seed uint64, idx int) (Adversary, error) {
	aseed := detrand.DeriveSeed(seed, []byte("adversary"), uint64(idx))
	switch cfg.Kind {
	case AdversaryReplay:
		return &replayAdversary{cfg: cfg}, nil
	case AdversaryInject:
		return &injectAdversary{cfg: cfg, seed: aseed}, nil
	case AdversaryBabble:
		return &babbleAdversary{cfg: cfg, seed: aseed}, nil
	case AdversaryPartition:
		return &partitionAdversary{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("scenario: unknown adversary kind %q", cfg.Kind)
}

// resolveSegment maps a config's Segment to a concrete bus index.
func resolveSegment(cfg AdversaryConfig, segments int) int {
	if cfg.Segment >= 0 {
		return cfg.Segment
	}
	if cfg.Kind == AdversaryBabble {
		return 0
	}
	return segments - 1
}

// babbleID is the CAN identifier of babbling-idiot traffic: the top
// of the initiator forwarding block, which no conversation can use
// (Peers ≤ 0xFF keeps conversation IDs below it) but every chain
// gateway forwards toward the victim segment — so the babble loads
// exactly the rate-limited egress ports the victims depend on.
const babbleID = initiatorIDBase + 0xFF

// maxReplayHops bounds the replayed-session message loop; an honest
// STS exchange needs two responder hops, so eight is generous.
const maxReplayHops = 8

// ---------------------------------------------------------------- replay

type replayAdversary struct {
	cfg AdversaryConfig
	acc AttackAccount
	sur *Surface
	tap *canbus.Node

	armed      bool
	recordings [][]canbus.Frame
}

func (a *replayAdversary) Kind() AdversaryKind { return AdversaryReplay }

func (a *replayAdversary) Attach(sur *Surface) error {
	seg := resolveSegment(a.cfg, len(sur.Buses))
	a.sur = sur
	a.tap = sur.Buses[seg].Tap("replay-adversary")
	a.recordings = make([][]canbus.Frame, len(sur.Peers))
	a.acc = AttackAccount{Kind: a.cfg.Kind, Segment: seg, Intensity: a.cfg.Intensity}
	return nil
}

func (a *replayAdversary) Arm(now time.Duration) { a.armed = true }
func (a *replayAdversary) Disarm()               { a.drain(); a.armed = false }

// Pump drains the tap, filing initiator-block frames per
// conversation. Recording is observation, not progress, so it always
// reports zero work.
func (a *replayAdversary) Pump() int { a.drain(); return 0 }

func (a *replayAdversary) NextDeadline() time.Duration { return 0 }

func (a *replayAdversary) drain() {
	for {
		f, ok := a.tap.Receive()
		if !ok {
			return
		}
		if !a.armed {
			continue
		}
		conv := int(f.ID) - initiatorIDBase
		if conv < 0 || conv >= len(a.recordings) {
			continue
		}
		a.recordings[conv] = append(a.recordings[conv], f)
	}
}

func (a *replayAdversary) Account() AttackAccount { return a.acc }

// Execute replays each recorded conversation verbatim against a
// fresh responder engine, through the real stack: the recorded frames
// are injected on the tap's segment, cross any gateways, reassemble
// in the victim's real endpoint, and the fresh responder's replies
// travel back the same way. Outcomes are classified with the shared
// security helpers; an accepted replay is a security failure the
// schema gate refuses to publish.
func (a *replayAdversary) Execute(tr *tracer) error {
	a.sur.World.Run()
	a.drain()
	limit := len(a.recordings)
	if cap := int(a.cfg.Intensity); cap > 0 && cap < limit {
		limit = cap
	}
	replayed := 0
	for conv, frames := range a.recordings {
		if len(frames) == 0 {
			continue
		}
		a.acc.RecordedSessions++
		if replayed >= limit {
			continue
		}
		replayed++
		a.acc.ReplayedSessions++
		outcome := a.replayOne(conv, frames)
		switch outcome {
		case security.ReplayAccepted:
			a.acc.AcceptedReplays++
		case security.ReplayRejectedAuth:
			a.acc.RejectedAuth++
		default:
			a.acc.RejectedProtocol++
		}
		tr.printf("replay conv=%d frames=%d outcome=%s\n", conv, len(frames), outcome)
	}
	return nil
}

// replayOne injects one conversation's recording and drives a fresh
// responder over the victim endpoint until the replay is accepted,
// rejected, or starves.
func (a *replayAdversary) replayOne(conv int, frames []canbus.Frame) security.ReplayOutcome {
	victim := a.sur.Remotes[conv]
	a.sur.World.Run()
	victim.Flush()
	resp, err := core.NewResponder(a.sur.Peers[conv], core.OptNone)
	if err != nil {
		return security.ClassifyReplay(false, err)
	}
	for _, f := range frames {
		if _, err := a.tap.Send(canbus.Frame{
			ID:       f.ID,
			Extended: f.Extended,
			BRS:      f.BRS,
			Data:     append([]byte(nil), f.Data...),
		}); err != nil {
			return security.ClassifyReplay(false, err)
		}
		a.acc.InjectedFrames++
	}
	a.sur.World.Run()

	completed := false
	var lastErr error
	for hop := 0; hop < maxReplayHops; hop++ {
		msg, err := victim.Poll()
		if err != nil {
			break
		}
		reply, done, err := resp.Handle(msg.Payload)
		if err != nil {
			lastErr = err
			break
		}
		if done {
			completed = true
			break
		}
		if reply == nil {
			break
		}
		m := transport.Message{
			CommCode:  fleet.HandshakeCommCode,
			SessionID: uint16(conv + 1),
			OpCode:    reply[0],
			Payload:   reply,
		}
		if _, err := victim.Send(m); err != nil {
			lastErr = err
			break
		}
		a.sur.World.Run()
	}
	return security.ClassifyReplay(completed, lastErr)
}

// ---------------------------------------------------------------- inject

type injectAdversary struct {
	cfg  AdversaryConfig
	acc  AttackAccount
	sur  *Surface
	tap  *canbus.Node
	seed uint64

	armed  bool
	draws  uint64
	forges uint64
}

func (a *injectAdversary) Kind() AdversaryKind { return AdversaryInject }

func (a *injectAdversary) Attach(sur *Surface) error {
	seg := resolveSegment(a.cfg, len(sur.Buses))
	a.sur = sur
	a.tap = sur.Buses[seg].Tap("inject-adversary")
	a.acc = AttackAccount{Kind: a.cfg.Kind, Segment: seg, Intensity: a.cfg.Intensity}
	return nil
}

func (a *injectAdversary) Arm(now time.Duration) { a.armed = true }
func (a *injectAdversary) Disarm()               { a.armed = false }

func (a *injectAdversary) NextDeadline() time.Duration { return 0 }

// Pump watches for FirstFrames of initiator-block transfers; each is
// a forge opportunity taken with probability Intensity, decided by a
// counted draw from the adversary's private detrand stream (same
// fabric, same seed, same forgery sequence). Forgeries rotate through
// the three ISO-TP lies: a FlowControl Wait (stalls the sender's wait
// budget), an out-of-sequence ConsecutiveFrame (poisons the victim's
// reassembly), and a FlowControl Overflow (aborts the transfer
// outright, forcing a fleet-level retry).
func (a *injectAdversary) Pump() int {
	injected := 0
	for {
		f, ok := a.tap.Receive()
		if !ok {
			return injected
		}
		if !a.armed || len(f.Data) == 0 || f.Data[0]>>4 != 0x1 {
			continue
		}
		conv := int(f.ID) - initiatorIDBase
		if conv < 0 || conv >= len(a.sur.Peers) {
			continue
		}
		if a.roll() >= a.cfg.Intensity {
			continue
		}
		injected += a.forge(conv)
	}
}

// roll returns the next uniform draw in [0,1).
func (a *injectAdversary) roll() float64 {
	a.draws++
	v := detrand.Mix64(a.seed ^ a.draws)
	return float64(v>>11) / (1 << 53)
}

func (a *injectAdversary) forge(conv int) int {
	kind := a.forges % 3
	a.forges++
	var frame canbus.Frame
	switch kind {
	case 0:
		// Forged Wait toward the initiator: it is honoured (up to the
		// sender's wait budget) because a FlowControl carries no
		// authentication — exactly the gap the attack documents.
		frame = canbus.Frame{
			ID:   uint32(responderIDBase + conv),
			Data: cantp.FlowControlFrame(cantp.FlowWait, 0, 0),
		}
		a.acc.ForgedFlowControls++
	case 1:
		// Out-of-sequence ConsecutiveFrame toward the responder: SN 15
		// can never be the expected next frame this early, so the
		// victim's reassembly aborts and the whole message must be
		// resent.
		frame = canbus.Frame{
			ID:   uint32(initiatorIDBase + conv),
			Data: []byte{0x2F, 0xDE, 0xAD, 0xBE, 0xEF},
		}
		a.acc.ForgedConsecutives++
	default:
		frame = canbus.Frame{
			ID:   uint32(responderIDBase + conv),
			Data: cantp.FlowControlFrame(cantp.FlowOverflow, 0, 0),
		}
		a.acc.ForgedFlowControls++
	}
	if _, err := a.tap.Send(frame); err != nil {
		return 0
	}
	a.acc.InjectedFrames++
	return 1
}

func (a *injectAdversary) Account() AttackAccount { return a.acc }

// ---------------------------------------------------------------- babble

type babbleAdversary struct {
	cfg  AdversaryConfig
	acc  AttackAccount
	sur  *Surface
	tap  *canbus.Node
	seed uint64

	armed    bool
	gap      time.Duration
	nextEmit time.Duration
	payload  []byte
}

func (a *babbleAdversary) Kind() AdversaryKind { return AdversaryBabble }

func (a *babbleAdversary) Attach(sur *Surface) error {
	seg := resolveSegment(a.cfg, len(sur.Buses))
	a.sur = sur
	a.tap = sur.Buses[seg].Tap("babble-adversary")
	a.acc = AttackAccount{Kind: a.cfg.Kind, Segment: seg, Intensity: a.cfg.Intensity}
	if a.cfg.Intensity > 0 {
		a.gap = time.Duration(float64(time.Second) / a.cfg.Intensity)
		if a.gap <= 0 {
			a.gap = time.Nanosecond
		}
	}
	a.payload = make([]byte, 8)
	binary.BigEndian.PutUint64(a.payload, detrand.Mix64(a.seed))
	return nil
}

func (a *babbleAdversary) Arm(now time.Duration) {
	a.armed = true
	a.nextEmit = now + a.cfg.Start + a.gap
}

func (a *babbleAdversary) Disarm() { a.armed = false }

// Pump emits at most one babble frame per call, self-clocked: the
// next emission is scheduled one gap after the frame actually left,
// so a super-saturating rate degrades to back-to-back frames at wire
// speed (a real babbling node cannot exceed the bus either) instead
// of diverging the pump loop. The tap's receive side is drained and
// discarded — a babbler does not listen.
func (a *babbleAdversary) Pump() int {
	for {
		if _, ok := a.tap.Receive(); !ok {
			break
		}
	}
	if !a.armed || a.gap == 0 || a.sur.Clock.Now() < a.nextEmit {
		return 0
	}
	if _, err := a.tap.Send(canbus.Frame{ID: babbleID, Data: a.payload}); err != nil {
		return 0
	}
	a.acc.InjectedFrames++
	a.nextEmit = a.sur.Clock.Now() + a.gap
	return 1
}

func (a *babbleAdversary) NextDeadline() time.Duration {
	if !a.armed || a.gap == 0 {
		return 0
	}
	return a.nextEmit
}

func (a *babbleAdversary) Account() AttackAccount { return a.acc }

// ------------------------------------------------------------- partition

const (
	defaultPartitionStart  = 200 * time.Microsecond
	defaultPartitionWindow = 500 * time.Microsecond
)

type partitionAdversary struct {
	cfg AdversaryConfig
	acc AttackAccount
	sur *Surface
	gw  *canbus.Gateway
	bus *canbus.Bus

	state            int // 0 idle, 1 armed, 2 severed, 3 healed
	severAt, healAt  time.Duration
	dropsBefore      int
	accountedSevered bool
}

func (a *partitionAdversary) Kind() AdversaryKind { return AdversaryPartition }

func (a *partitionAdversary) Attach(sur *Surface) error {
	seg := resolveSegment(a.cfg, len(sur.Buses))
	if seg < 1 || seg >= len(sur.Buses) {
		return fmt.Errorf("scenario: partition segment %d has no upstream gateway link", seg)
	}
	a.sur = sur
	a.gw = sur.Gateways[seg-1]
	a.bus = sur.Buses[seg]
	a.dropsBefore = a.gw.Stats().PartitionDrop
	a.acc = AttackAccount{Kind: a.cfg.Kind, Segment: seg, Intensity: a.cfg.Intensity}
	return nil
}

func (a *partitionAdversary) Arm(now time.Duration) {
	start := a.cfg.Start
	if start <= 0 {
		start = defaultPartitionStart
	}
	window := time.Duration(a.cfg.Intensity * float64(time.Second))
	if window <= 0 {
		window = defaultPartitionWindow
	}
	a.severAt = now + start
	a.healAt = a.severAt + window
	a.state = 1
}

func (a *partitionAdversary) Disarm() {
	if a.state == 2 {
		a.heal()
	}
	a.state = 0
}

func (a *partitionAdversary) Pump() int {
	now := a.sur.Clock.Now()
	switch a.state {
	case 1:
		if now < a.severAt {
			return 0
		}
		if err := a.gw.SetLinkUp(a.bus, false); err != nil {
			a.state = 3
			return 0
		}
		a.acc.Partitions++
		a.state = 2
		return 1
	case 2:
		if now < a.healAt {
			return 0
		}
		a.heal()
		return 1
	}
	return 0
}

func (a *partitionAdversary) heal() {
	if err := a.gw.SetLinkUp(a.bus, true); err == nil {
		a.acc.Heals++
	}
	a.state = 3
}

func (a *partitionAdversary) NextDeadline() time.Duration {
	switch a.state {
	case 1:
		return a.severAt
	case 2:
		return a.healAt
	}
	return 0
}

func (a *partitionAdversary) Account() AttackAccount {
	a.acc.PartitionDrops = a.gw.Stats().PartitionDrop - a.dropsBefore
	return a.acc
}
