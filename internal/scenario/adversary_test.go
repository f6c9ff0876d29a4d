package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/canbus"
)

// attackScenario builds a small attack-workload scenario around one
// adversary kind with a kind-appropriate default intensity.
func attackScenario(kind AdversaryKind, intensity float64) Scenario {
	s := Scenario{
		Name:           "attack-" + string(kind),
		Seed:           77,
		Peers:          3,
		Segments:       3,
		GatewayLatency: 50 * time.Microsecond,
		Workload:       WorkloadAttack,
		Adversaries:    []AdversaryConfig{{Kind: kind, Segment: -1, Intensity: intensity}},
	}
	if kind == AdversaryBabble {
		// The babbling-idiot story needs a rate-limited egress for the
		// fair-queuing gateway to arbitrate.
		s.Egress = canbus.EgressPolicy{Rate: 800, Queue: 64}
	}
	return s
}

// TestAdversaryWorkerInvariance is the tentpole's determinism gate in
// unit-test form: for every adversary kind (and the composite
// workload), the serial run and the 8-way sweep-worker run must be
// byte-identical in JSON, CSV and trace — the same contract the CI
// adversarial-smoke leg enforces through cmd/scenario.
func TestAdversaryWorkerInvariance(t *testing.T) {
	cases := []Scenario{
		attackScenario(AdversaryReplay, 0),
		attackScenario(AdversaryInject, 0.6),
		attackScenario(AdversaryBabble, 4000),
		attackScenario(AdversaryPartition, 0.001),
	}
	day := attackScenario(AdversaryInject, 0.5)
	day.Name = "day-in-the-life"
	day.Workload = WorkloadDayInLife
	day.Adversaries = append(day.Adversaries, AdversaryConfig{Kind: AdversaryReplay, Segment: -1})
	cases = append(cases, day)

	for _, s := range cases {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			// Give every scenario a sweep so the workers have points to
			// race over.
			s.SweepAxis = AxisDrop
			s.SweepPoints = []float64{0, 0.02}

			var serialTrace bytes.Buffer
			serial, _, err := RunWith(s, Options{Workers: 1}, NewTraceSink(&serialTrace))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			var parTrace bytes.Buffer
			par, _, err := RunWith(s, Options{Workers: 8}, NewTraceSink(&parTrace))
			if err != nil {
				t.Fatalf("8-way: %v", err)
			}

			sj, _ := json.Marshal(serial)
			pj, _ := json.Marshal(par)
			if !bytes.Equal(sj, pj) {
				t.Errorf("JSON diverged between serial and 8-way runs")
			}
			var sc, pc bytes.Buffer
			if err := WriteCSV(&sc, serial); err != nil {
				t.Fatal(err)
			}
			if err := WriteCSV(&pc, par); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sc.Bytes(), pc.Bytes()) {
				t.Errorf("CSV diverged between serial and 8-way runs")
			}
			if !bytes.Equal(serialTrace.Bytes(), parTrace.Bytes()) {
				t.Errorf("trace diverged between serial and 8-way runs")
			}
			if _, err := ValidateJSON(sj); err != nil {
				t.Errorf("emitted attack result fails its own schema gate: %v", err)
			}
		})
	}
}

// TestReplayAttackRejectedEndToEnd drives the live replay attacker
// through the real transport/cantp stack and asserts the paper's
// claim: every recorded handshake, re-injected verbatim against a
// fresh responder, is rejected — and rejected cryptographically
// (ErrHandshakeAuth), not by state-machine accident.
func TestReplayAttackRejectedEndToEnd(t *testing.T) {
	res, _, err := RunWith(attackScenario(AdversaryReplay, 0), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Errors != 0 {
		t.Fatalf("benign handshakes failed under a passive recorder: %d errors", pt.Errors)
	}
	if len(pt.Attacks) != 1 {
		t.Fatalf("got %d attack accounts, want 1", len(pt.Attacks))
	}
	acc := pt.Attacks[0]
	if acc.RecordedSessions != 3 {
		t.Errorf("recorded %d sessions, want 3", acc.RecordedSessions)
	}
	if acc.ReplayedSessions != 3 {
		t.Errorf("replayed %d sessions, want 3", acc.ReplayedSessions)
	}
	if acc.RejectedAuth != acc.ReplayedSessions {
		t.Errorf("rejected_auth %d != replayed %d — some replays died before the cryptographic check (rejected_protocol=%d)",
			acc.RejectedAuth, acc.ReplayedSessions, acc.RejectedProtocol)
	}
	if acc.AcceptedReplays != 0 {
		t.Fatalf("SECURITY: %d replayed sessions were accepted", acc.AcceptedReplays)
	}
	if acc.InjectedFrames == 0 {
		t.Error("replay attack injected no frames — it never exercised the stack")
	}
}

// TestReplaySessionCap bounds the storm with Intensity.
func TestReplaySessionCap(t *testing.T) {
	res, _, err := RunWith(attackScenario(AdversaryReplay, 2), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	acc := res.Points[0].Attacks[0]
	if acc.ReplayedSessions != 2 {
		t.Errorf("replayed %d sessions under cap 2", acc.ReplayedSessions)
	}
	if acc.RecordedSessions != 3 {
		t.Errorf("recorded %d sessions, want 3 (the cap bounds replays, not recording)", acc.RecordedSessions)
	}
}

// TestBabbleDegradesVictimLatency measures the babbling-idiot curve's
// shape: victim handshakes still complete (the fair-queuing gateway
// guarantees each flow its share), but their latency grows with the
// babble rate.
func TestBabbleDegradesVictimLatency(t *testing.T) {
	lat := func(rate float64) float64 {
		res, _, err := RunWith(attackScenario(AdversaryBabble, rate), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pt := res.Points[0]
		if pt.Errors != 0 {
			t.Fatalf("rate %v: %d victim handshakes failed — fair queuing did not isolate them", rate, pt.Errors)
		}
		if pt.Latency == nil {
			t.Fatalf("rate %v: no victim latency stats", rate)
		}
		return pt.Latency.P95US
	}
	quiet := lat(0)
	loud := lat(8000)
	if loud <= quiet {
		t.Errorf("victim p95 latency did not grow under babble: quiet=%vus loud=%vus", quiet, loud)
	}
}

// TestPartitionHealExercisesRecovery severs the victim segment's
// uplink mid-handshake and checks the stack recovered after the heal:
// frames died at the severed port, retransmissions fired, and every
// handshake eventually completed.
func TestPartitionHealExercisesRecovery(t *testing.T) {
	res, _, err := RunWith(attackScenario(AdversaryPartition, 0.001), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	acc := pt.Attacks[0]
	if acc.Partitions != 1 || acc.Heals != 1 {
		t.Errorf("partitions=%d heals=%d, want 1/1", acc.Partitions, acc.Heals)
	}
	if acc.PartitionDrops == 0 {
		t.Error("no frames died at the severed port — the partition landed outside any transfer")
	}
	if pt.GatewayPartitionDrops != acc.PartitionDrops {
		t.Errorf("fabric partition drops %d != adversary's %d", pt.GatewayPartitionDrops, acc.PartitionDrops)
	}
	if pt.Errors != 0 {
		t.Errorf("%d handshakes never recovered from the partition", pt.Errors)
	}
	if pt.Retransmits == 0 && pt.MessageResends == 0 && pt.Retries == 0 {
		t.Error("partition forced no recovery work at all")
	}
}

// TestInjectForcesRecovery forges on most observed FirstFrames and
// checks the ISO-TP machinery absorbed the lies: waits honoured,
// transfers aborted and retried, and the fleet still converged.
func TestInjectForcesRecovery(t *testing.T) {
	res, _, err := RunWith(attackScenario(AdversaryInject, 0.8), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	acc := pt.Attacks[0]
	if acc.ForgedFlowControls == 0 {
		t.Error("no FlowControls forged at probability 0.8")
	}
	if acc.ForgedConsecutives == 0 {
		t.Error("no ConsecutiveFrames forged at probability 0.8")
	}
	if pt.Errors != 0 {
		t.Errorf("%d handshakes never recovered from the forgeries", pt.Errors)
	}
	if pt.Retries == 0 && pt.MessageResends == 0 {
		t.Error("forgeries forced no recovery work — the attack was a no-op")
	}
}

// TestInjectAtCertaintyExhaustsRetries: at probability 1 every retry
// gets forged too, so the handshakes must fail honestly — exhausted
// retry budgets in the accounting, never a hang or a phantom success.
func TestInjectAtCertaintyExhaustsRetries(t *testing.T) {
	s := attackScenario(AdversaryInject, 1)
	res, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Errors != s.Peers {
		t.Errorf("%d of %d handshakes failed under certain forgery, want all", pt.Errors, s.Peers)
	}
	if pt.FailedAttempts == 0 || pt.WorstAttempts == 0 {
		t.Errorf("exhaustion not visible in accounting: failed=%d worst=%d", pt.FailedAttempts, pt.WorstAttempts)
	}
}

// TestDayInTheLifeComposite checks the composite workload's phase
// structure and that its attack burst carries full accounting.
func TestDayInTheLifeComposite(t *testing.T) {
	s := attackScenario(AdversaryInject, 0.5)
	s.Name = "composite"
	s.Workload = WorkloadDayInLife
	s.Adversaries = append(s.Adversaries, AdversaryConfig{Kind: AdversaryReplay, Segment: -1})
	res, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	want := []string{"bringup", "steady", "churn", "attack"}
	if len(pt.Phases) != len(want) {
		t.Fatalf("got %d phases, want %d", len(pt.Phases), len(want))
	}
	for i, ph := range pt.Phases {
		if ph.Phase != want[i] {
			t.Errorf("phase %d = %q, want %q", i, ph.Phase, want[i])
		}
		if ph.TimeUS <= 0 {
			t.Errorf("phase %q took no simulated time", ph.Phase)
		}
	}
	if len(pt.Attacks) != 2 {
		t.Fatalf("got %d attack accounts, want 2", len(pt.Attacks))
	}
	for _, acc := range pt.Attacks {
		if acc.AcceptedReplays != 0 {
			t.Fatalf("SECURITY: composite accepted %d replays", acc.AcceptedReplays)
		}
	}
	if pt.Latency == nil {
		t.Error("composite has no victim latency stats from its attack burst")
	}
	// The replay recorder only runs armed (the attack burst), so it
	// must not have recorded the bringup/steady/churn handshakes.
	for _, acc := range pt.Attacks {
		if acc.Kind == AdversaryReplay && acc.RecordedSessions > s.Peers {
			t.Errorf("replay recorded %d sessions — it was listening outside the attack burst", acc.RecordedSessions)
		}
	}
}

// TestAttackSweepOverridesIntensity sweeps the attack axis and checks
// each point ran its adversary at the sweep value.
func TestAttackSweepOverridesIntensity(t *testing.T) {
	s := attackScenario(AdversaryBabble, 0)
	s.SweepAxis = AxisAttack
	s.SweepPoints = []float64{0, 2000, 8000}
	res, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("got %d points", len(res.Points))
	}
	var prev int
	for i, pt := range res.Points {
		acc := pt.Attacks[0]
		if acc.Intensity != s.SweepPoints[i] {
			t.Errorf("point %d ran at intensity %v, want %v", i, acc.Intensity, s.SweepPoints[i])
		}
		if acc.InjectedFrames < prev {
			t.Errorf("point %d injected %d frames, fewer than the quieter point's %d", i, acc.InjectedFrames, prev)
		}
		prev = acc.InjectedFrames
	}
}

// TestAdversaryValidation covers the adversarial-workload contract.
func TestAdversaryValidation(t *testing.T) {
	base := attackScenario(AdversaryReplay, 0)
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"attack workload without adversaries", func(s *Scenario) { s.Adversaries = nil }, "needs at least one adversary"},
		{"adversaries on benign workload", func(s *Scenario) { s.Workload = WorkloadLatency }, "benign workload"},
		{"attack axis without adversaries", func(s *Scenario) {
			s.Workload = WorkloadLatency
			s.Adversaries = nil
			s.SweepAxis = AxisAttack
			s.SweepPoints = []float64{0, 1}
		}, "attack sweep axis without adversaries"},
		{"parallelism under attack", func(s *Scenario) { s.Parallelism = 4 }, "parallelism 1"},
		{"unknown kind", func(s *Scenario) { s.Adversaries[0].Kind = "ghost" }, "unknown kind"},
		{"segment out of range", func(s *Scenario) { s.Adversaries[0].Segment = 7 }, "outside"},
		{"negative intensity", func(s *Scenario) { s.Adversaries[0].Intensity = -1 }, "negative intensity"},
		{"negative start", func(s *Scenario) { s.Adversaries[0].Start = -time.Second }, "negative start"},
		{"inject probability out of range", func(s *Scenario) {
			s.Adversaries[0] = AdversaryConfig{Kind: AdversaryInject, Segment: -1, Intensity: 1.5}
		}, "out of [0,1]"},
		{"inject attack sweep out of range", func(s *Scenario) {
			s.Adversaries[0] = AdversaryConfig{Kind: AdversaryInject, Segment: -1, Intensity: 0.5}
			s.SweepAxis = AxisAttack
			s.SweepPoints = []float64{0.5, 2}
		}, "inject probability range"},
		{"negative attack sweep point", func(s *Scenario) {
			s.SweepAxis = AxisAttack
			s.SweepPoints = []float64{-1}
		}, "negative attack sweep point"},
		{"partition on one segment", func(s *Scenario) {
			s.Segments = 1
			s.Adversaries[0] = AdversaryConfig{Kind: AdversaryPartition, Segment: -1}
		}, "at least 2 segments"},
		{"partition on segment zero", func(s *Scenario) {
			s.Adversaries[0] = AdversaryConfig{Kind: AdversaryPartition, Segment: 0}
		}, "no upstream gateway link"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			s.Adversaries = append([]AdversaryConfig(nil), base.Adversaries...)
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid adversarial scenario")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// And the happy paths stay happy.
	if err := base.Validate(); err != nil {
		t.Errorf("valid attack scenario rejected: %v", err)
	}
	sweep := attackScenario(AdversaryBabble, 0)
	sweep.SweepAxis = AxisAttack
	sweep.SweepPoints = []float64{0, 4000} // > 1 is legal without inject
	if err := sweep.Validate(); err != nil {
		t.Errorf("valid attack sweep rejected: %v", err)
	}
}

// TestTapIsMeasurementInvisible re-runs the golden benign scenario
// with a passive recorder... it can't: adversaries are rejected on
// benign workloads. Instead it checks the next best thing — the
// attack workload at intensity 0 with only a passive replay recorder
// measures the same victim latency as the plain latency workload on
// the identical fabric, proving the tap (and the agent pump hooks)
// perturb nothing.
func TestTapIsMeasurementInvisible(t *testing.T) {
	attack := attackScenario(AdversaryReplay, 0)
	benign := attack
	benign.Workload = WorkloadLatency
	benign.Adversaries = nil

	ra, _, err := RunWith(attack, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := RunWith(benign, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	la, lb := ra.Points[0].Latency, rb.Points[0].Latency
	if la == nil || lb == nil {
		t.Fatal("missing latency stats")
	}
	if *la != *lb {
		t.Errorf("passive tap perturbed the measurement: with tap %+v, without %+v", *la, *lb)
	}
}
