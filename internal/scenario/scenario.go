// Package scenario is the declarative measurement engine on top of
// the impairment-aware CAN fabric: a Scenario names a topology, an
// impairment profile, a workload and a sweep axis, and RunWith (or
// RunStreamWith) drives the session-establishment fleet over the
// simulated multi-segment network, emitting structured measurements —
// handshake-latency-vs-loss-rate curves, per-Table-II-step
// retransmission and overhead accounting, fleet bring-up under churn —
// as JSON or CSV.
//
// This turns the chaos fabric of internal/canbus, internal/cantp and
// internal/transport from a test fixture into an instrument: the
// paper's cost claims (Table II) are stated for a lossless bus, and
// the scenario engine measures how they degrade when the bus does.
// Every run is seeded and every fault decision content-keyed, so a
// published curve is exactly reproducible from its scenario
// definition.
package scenario

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/canbus"
)

// Workload selects what the fleet does during a measurement point.
type Workload string

const (
	// WorkloadLatency runs one handshake per peer, serially, and
	// records each handshake's simulated-time cost (retries included)
	// — the latency-vs-loss curve workload.
	WorkloadLatency Workload = "latency"
	// WorkloadBringup establishes the whole fleet through
	// EstablishAll and records the total bring-up time.
	WorkloadBringup Workload = "bringup"
	// WorkloadChurn brings the fleet up, then repeatedly drops and
	// re-establishes half of it, modelling vehicles leaving and
	// rejoining a group.
	WorkloadChurn Workload = "churn"
	// WorkloadAttack runs the latency workload's serial handshake
	// loop with the scenario's adversaries armed, then executes any
	// deferred attack phases (the replay attacker re-injects its
	// recordings). Victim-handshake latency percentiles plus
	// per-attack accounting are the measurements. Requires at least
	// one adversary and Parallelism 1 (attack timing is keyed to the
	// shared simulated clock, so conversation interleaving inside a
	// point would change what the adversary observes).
	WorkloadAttack Workload = "attack"
	// WorkloadDayInLife is the composite duty cycle: fleet bring-up,
	// one steady-traffic rekey round, one churn round, then a single
	// attack burst (handshake round with adversaries armed) — each
	// phase timed separately. Adversaries are optional: without any,
	// the attack phase degrades to a second rekey round and the result
	// carries no attack accounting — the benign duty cycle. With
	// adversaries, the same parallelism rules as WorkloadAttack apply
	// (Parallelism 1); adversary-free configs may set Parallelism > 1
	// and the bring-up/churn phases honor it.
	WorkloadDayInLife Workload = "day-in-the-life"
)

// Axis names the impairment rate a sweep varies.
type Axis string

const (
	// AxisDrop sweeps the per-frame drop probability.
	AxisDrop Axis = "drop"
	// AxisCorrupt sweeps the per-frame corruption probability.
	AxisCorrupt Axis = "corrupt"
	// AxisDuplicate sweeps the per-frame duplication probability.
	AxisDuplicate Axis = "duplicate"
	// AxisAttack sweeps adversary intensity instead of an impairment
	// rate: every configured adversary's Intensity is overridden by
	// the sweep value (babble rate in frames/s, inject probability,
	// partition window in seconds, replay session cap). Values are
	// not confined to [0,1] unless an inject adversary is configured.
	AxisAttack Axis = "attack"
)

// Profile is the per-segment impairment profile applied to every bus
// of the topology (content-keyed per bus through BusID, so segments
// fault independently).
type Profile struct {
	Drop      float64       `json:"drop"`
	Corrupt   float64       `json:"corrupt"`
	Duplicate float64       `json:"duplicate"`
	DelayRate float64       `json:"delay_rate"`
	Delay     time.Duration `json:"delay_ns"`
}

// Scenario is one declarative measurement definition.
type Scenario struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`

	// Topology: the manager sits on segment 0, the peers on the last
	// segment, with a chain of gateways in between (Segments = 1 puts
	// everyone on one bus). GatewayLatency is the per-hop
	// store-and-forward cost; a non-zero Egress policy congests every
	// gateway port.
	Peers          int                 `json:"peers"`
	Segments       int                 `json:"segments"`
	GatewayLatency time.Duration       `json:"gateway_latency_ns"`
	Egress         canbus.EgressPolicy `json:"egress"`

	Profile  Profile  `json:"profile"`
	Workload Workload `json:"workload"`

	// Sweep varies one impairment axis across Points; an empty sweep
	// measures the base profile once.
	SweepAxis   Axis      `json:"sweep_axis,omitempty"`
	SweepPoints []float64 `json:"sweep_points,omitempty"`

	// Attempts is the per-handshake retry budget (default 10).
	Attempts int `json:"attempts"`
	// Parallelism is the EstablishAll worker count for the bringup
	// and churn workloads (default 1; the latency workload is serial
	// by definition). Any value reproduces the same trace: fault
	// decisions are content-keyed, every conversation draws private
	// randomness, and congested gateway ports schedule releases per
	// conversation flow (fair queuing), so the counters are
	// schedule-invariant even when Egress rate-limits the gateways.
	// The one remaining exception is duplicate impairment combined
	// with a rate-limited Egress policy: a trailing duplicate frame
	// may still be gated when the workload ends, and which run counts
	// it depends on scheduling — Validate rejects that combination at
	// Parallelism > 1.
	Parallelism int `json:"parallelism"`
	// ChurnRounds is the number of drop/re-establish rounds of the
	// churn workload (default 3).
	ChurnRounds int `json:"churn_rounds,omitempty"`

	// Adversaries arms the attack workloads (and only those: Validate
	// rejects adversaries on benign workloads, and rejects the attack
	// workload without adversaries; day-in-the-life runs with or
	// without them). Each runs on the point's private fabric with its
	// own detrand stream, so the whole attack is schedule-invariant
	// across sweep workers.
	Adversaries []AdversaryConfig `json:"adversaries,omitempty"`
}

// withDefaults fills unset knobs.
func (s Scenario) withDefaults() Scenario {
	if s.Segments <= 0 {
		s.Segments = 3
	}
	if s.Attempts <= 0 {
		s.Attempts = 10
	}
	if s.Parallelism <= 0 {
		s.Parallelism = 1
	}
	if s.ChurnRounds <= 0 {
		s.ChurnRounds = 3
	}
	if s.Workload == "" {
		s.Workload = WorkloadLatency
	}
	if s.GatewayLatency < 0 {
		s.GatewayLatency = 0
	}
	return s
}

// Validate rejects unrunnable scenarios.
func (s Scenario) Validate() error {
	s = s.withDefaults()
	if s.Name == "" {
		return errors.New("scenario: empty name")
	}
	if s.Peers < 1 {
		return fmt.Errorf("scenario: %d peers", s.Peers)
	}
	if s.Peers > 0xFF {
		return fmt.Errorf("scenario: %d peers exceed the CAN ID block", s.Peers)
	}
	switch s.Workload {
	case WorkloadLatency, WorkloadBringup, WorkloadChurn, WorkloadAttack, WorkloadDayInLife:
	default:
		return fmt.Errorf("scenario: unknown workload %q", s.Workload)
	}
	switch s.SweepAxis {
	case "", AxisDrop, AxisCorrupt, AxisDuplicate, AxisAttack:
	default:
		return fmt.Errorf("scenario: unknown sweep axis %q", s.SweepAxis)
	}
	if len(s.SweepPoints) > 0 && s.SweepAxis == "" {
		return errors.New("scenario: sweep points without an axis")
	}
	if s.SweepPoints != nil && len(s.SweepPoints) == 0 {
		return errors.New("scenario: sweep declared with zero points (a zero-point run would emit an empty curve and report 0 workers)")
	}
	for _, rate := range [...]float64{s.Profile.Drop, s.Profile.Corrupt, s.Profile.Duplicate, s.Profile.DelayRate} {
		if rate < 0 || rate > 1 {
			return fmt.Errorf("scenario: impairment rate %v out of [0,1]", rate)
		}
	}
	for _, p := range s.SweepPoints {
		if s.SweepAxis == AxisAttack {
			// Attack intensities are kind-scaled (frames/s, seconds,
			// session counts), not rates; only the inject probability
			// is a rate, checked below.
			if p < 0 {
				return fmt.Errorf("scenario: negative attack sweep point %v", p)
			}
			continue
		}
		if p < 0 || p > 1 {
			return fmt.Errorf("scenario: sweep point %v out of [0,1]", p)
		}
	}
	if err := s.validateAdversaries(); err != nil {
		return err
	}
	if s.Egress.Rate < 0 || s.Egress.Queue < 0 {
		return errors.New("scenario: negative egress policy")
	}
	if s.Egress.Shared && s.Egress.Rate > 0 && s.Parallelism > 1 {
		// Shared capacity couples conversations through one aggregate
		// rate by design: the release schedule depends on which flows
		// are backlogged when, i.e. on the order whole conversations
		// are admitted — exactly what EstablishAll parallelism
		// permutes. Per-flow egress (Shared=false) stays
		// schedule-invariant; sweep-point workers (Options.Workers)
		// are always fine either way, because points never share a
		// port.
		return errors.New("scenario: shared-capacity egress requires parallelism 1 (flows couple through the aggregate rate, so the schedule depends on conversation admission order)")
	}
	if s.Egress.Rate > 0 && s.Parallelism > 1 && (s.Profile.Duplicate > 0 || s.SweepAxis == AxisDuplicate) {
		// Rate-gated ports with the fair-queuing scheduler are
		// schedule-invariant per conversation flow, but a duplicated
		// frame's second copy can still be gated when the workload
		// ends — and whether its release (and the counters it moves)
		// lands before the measurement is read then depends on which
		// conversation finished last. Everything else about egress ×
		// concurrency is reproducible; this corner is not, so reject
		// it rather than publish a flaky curve.
		return errors.New("scenario: duplicate impairment with a rate-limited egress policy requires parallelism 1 (a trailing duplicate may still be gated when the workload ends)")
	}
	return nil
}

// attackWorkload reports whether the workload arms adversaries.
func (s Scenario) attackWorkload() bool {
	return s.Workload == WorkloadAttack || s.Workload == WorkloadDayInLife
}

// validateAdversaries enforces the adversarial-workload contract: the
// attack workload needs at least one adversary (day-in-the-life is a
// duty cycle first, so it runs adversary-free too), adversaries never
// ride benign workloads, armed points run at Parallelism 1 (adversary
// decisions are keyed to the shared simulated clock, so conversation
// interleaving inside a point would change what the attacker observes
// — sweep-point workers stay free, each point's fabric is private),
// and every config resolves to a real target on the topology.
func (s Scenario) validateAdversaries() error {
	if s.Workload == WorkloadAttack && len(s.Adversaries) == 0 {
		return fmt.Errorf("scenario: workload %q needs at least one adversary", s.Workload)
	}
	if !s.attackWorkload() && len(s.Adversaries) > 0 {
		return fmt.Errorf("scenario: adversaries configured on benign workload %q", s.Workload)
	}
	if s.SweepAxis == AxisAttack && len(s.Adversaries) == 0 {
		return errors.New("scenario: attack sweep axis without adversaries")
	}
	if len(s.Adversaries) > 0 && s.Parallelism > 1 {
		return errors.New("scenario: adversaries require parallelism 1 (attack timing is keyed to the shared simulated clock, so conversation interleaving inside a point changes what the adversary observes)")
	}
	for i, cfg := range s.Adversaries {
		switch cfg.Kind {
		case AdversaryReplay, AdversaryInject, AdversaryBabble, AdversaryPartition:
		default:
			return fmt.Errorf("scenario: adversary %d: unknown kind %q", i, cfg.Kind)
		}
		if cfg.Segment >= s.Segments {
			return fmt.Errorf("scenario: adversary %d: segment %d outside the %d-segment topology", i, cfg.Segment, s.Segments)
		}
		if cfg.Intensity < 0 {
			return fmt.Errorf("scenario: adversary %d: negative intensity", i)
		}
		if cfg.Start < 0 {
			return fmt.Errorf("scenario: adversary %d: negative start", i)
		}
		if cfg.Kind == AdversaryInject {
			if cfg.Intensity > 1 {
				return fmt.Errorf("scenario: adversary %d: inject probability %v out of [0,1]", i, cfg.Intensity)
			}
			if s.SweepAxis == AxisAttack {
				for _, p := range s.SweepPoints {
					if p > 1 {
						return fmt.Errorf("scenario: attack sweep point %v exceeds the inject probability range [0,1]", p)
					}
				}
			}
		}
		if cfg.Kind == AdversaryPartition {
			if s.Segments < 2 {
				return fmt.Errorf("scenario: adversary %d: partition needs at least 2 segments", i)
			}
			if seg := resolveSegment(cfg, s.Segments); seg < 1 {
				return fmt.Errorf("scenario: adversary %d: partition segment %d has no upstream gateway link", i, seg)
			}
		}
	}
	return nil
}

// points returns the sweep values to measure, or the base profile's
// own axis value when no sweep was declared. A declared-but-empty
// sweep (non-nil, zero points) never reaches here: Validate rejects it
// — it used to fall through to a zero-point run that clamped the
// worker count to 0 and emitted an empty curve with no diagnostic.
func (s Scenario) points() []float64 {
	if s.SweepPoints != nil {
		return s.SweepPoints
	}
	return []float64{s.axisValue(s.Profile)}
}

// axisValue reads the swept rate out of a profile.
func (s Scenario) axisValue(p Profile) float64 {
	switch s.SweepAxis {
	case AxisCorrupt:
		return p.Corrupt
	case AxisDuplicate:
		return p.Duplicate
	case AxisAttack:
		if len(s.Adversaries) > 0 {
			return s.Adversaries[0].Intensity
		}
		return 0
	default:
		return p.Drop
	}
}

// profileAt returns the profile with the swept axis set to v.
func (s Scenario) profileAt(v float64) Profile {
	p := s.Profile
	switch s.SweepAxis {
	case AxisCorrupt:
		p.Corrupt = v
	case AxisDuplicate:
		p.Duplicate = v
	case AxisDrop, "":
		if len(s.SweepPoints) > 0 {
			p.Drop = v
		}
	}
	return p
}

// adversariesAt returns the adversary configs for one sweep point: a
// copy of the declared configs, with every Intensity overridden by
// the sweep value when the attack axis is being swept.
func (s Scenario) adversariesAt(v float64) []AdversaryConfig {
	if len(s.Adversaries) == 0 {
		return nil
	}
	out := append([]AdversaryConfig(nil), s.Adversaries...)
	if s.SweepAxis == AxisAttack {
		for i := range out {
			out[i].Intensity = v
		}
	}
	return out
}
