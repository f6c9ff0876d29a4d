package scenario

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/fleet"
	"repro/internal/session"
)

// Options tune how a scenario executes without changing what it
// measures: every knob here is an execution detail, so the Result (and
// any trace) is byte-identical for every Options value. (Trace bytes
// additionally require the scenario itself to be trace-deterministic —
// see TraceSink.)
type Options struct {
	// Workers bounds how many sweep points simulate concurrently.
	// Each point owns a fully isolated fabric — its own simulated
	// clock, buses, gateways, endpoints, provisioning network and
	// randomness streams — so points are embarrassingly parallel and
	// fan out over internal/conc. ≤ 0 means one worker per core
	// (GOMAXPROCS).
	Workers int
}

// Timing reports the real (wall-clock) cost of a run — the one output
// that legitimately varies with Options and host, which is why it
// travels beside the Result instead of inside it.
type Timing struct {
	// Workers is the resolved worker count the run used.
	Workers int
	// WallClock is the elapsed real time of the whole sweep.
	WallClock time.Duration
	// Points holds each sweep point's elapsed real time,
	// index-aligned with Result.Points.
	Points []time.Duration
	// MaxInFlight is the peak number of points simulating
	// concurrently — the direct evidence of multi-core execution.
	MaxInFlight int
	// MaxReorderDepth is the peak number of completed points the
	// ordered emitter held while waiting for an earlier point to
	// finish — the direct evidence that memory stayed O(workers +
	// ReorderSlack) rather than O(points). Always ≤ Workers +
	// ReorderSlack; RunStreamWith fails the run otherwise.
	MaxReorderDepth int
	// HeapHighWater is the highest sampled heap allocation
	// (runtime.MemStats.HeapAlloc) observed during the run, sampled
	// every few flushed points. Host- and GC-dependent — evidence, not
	// a measurement.
	HeapHighWater uint64
}

// RunWith executes the scenario with the given execution options and
// returns its measurements and the run's wall-clock timing. It is
// RunStreamWith with a collecting sink in front of sinks, so the
// materialized and streamed outputs share one engine and their byte
// identity holds by construction. The Result is byte-identical for
// every worker count; pass NewTraceSink(w) to write the fault and
// recovery trace as well.
func RunWith(s Scenario, o Options, sinks ...PointSink) (*Result, *Timing, error) {
	col := &collectSink{}
	timing, err := RunStreamWith(s, append([]PointSink{col}, sinks...), o)
	if err != nil {
		return nil, nil, err
	}
	return col.res, timing, nil
}

// tracer accumulates the text trace; a nil tracer writes nothing.
type tracer struct {
	w   io.Writer
	err error
}

func (t *tracer) printf(format string, args ...any) {
	if t == nil || t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

// runPointFn is the per-point executor; tests swap it to exercise the
// point-failure path, which no valid scenario reaches on its own.
var runPointFn = runPoint

// establishAllFn is the fleet bring-up call; tests swap it to observe
// the parallelism actually requested (the Result is schedule-invariant
// by contract, so honoring Scenario.Parallelism is unobservable in the
// measurements — exactly the property that let the old hardcoded
// EstablishAll(peers, 1) hide for three releases).
var establishAllFn = func(m *fleet.Manager, peers []*core.Party, parallelism int) []error {
	return m.EstablishAll(peers, parallelism)
}

// runPoint provisions a fleet, builds the fabric at one sweep value
// and drives the workload. Everything it touches — provisioning
// network, randomness streams, buses, gateways, clock, endpoints,
// manager — is constructed here from the scenario value and the sweep
// value alone, never shared: that isolation is what lets sweep points
// run concurrently and still measure bit-identical results.
func runPoint(s Scenario, v float64, axis Axis, tr *tracer) (Point, error) {
	prof := s.profileAt(v)
	tr.printf("point %s=%.4f\n", axis, v)

	net, err := core.NewNetwork(ec.P256(), detrand.NewReader(detrand.DeriveSeed(s.Seed, []byte("provision"), math.Float64bits(v))))
	if err != nil {
		return Point{}, err
	}
	names := []string{"scenario-manager"}
	for i := 0; i < s.Peers; i++ {
		names = append(names, fmt.Sprintf("ecu-%02d", i))
	}
	parties, err := net.ProvisionBatch(names, 1)
	if err != nil {
		return Point{}, err
	}
	self, peers := parties[0], parties[1:]
	for _, peer := range peers {
		// Private responder-side randomness per peer: leg two of
		// reproducible concurrency (leg one is content-keyed faults).
		peer.Rand = detrand.NewReader(detrand.DeriveSeed(s.Seed, peer.ID[:], 0xB0B))
	}

	var faultTrace func(canbus.FaultEvent)
	if tr != nil {
		faultTrace = func(ev canbus.FaultEvent) {
			tr.printf("fault t=%dns bus=%d id=0x%03x occ=%d kind=%s\n",
				ev.Time.Nanoseconds(), ev.BusID, ev.FrameID, ev.Occurrence, ev.Kind)
		}
	}
	fab, err := buildFabric(s, prof, peers, faultTrace)
	if err != nil {
		return Point{}, err
	}

	m, err := fleet.NewManager(self, core.OptNone, session.DefaultPolicy)
	if err != nil {
		return Point{}, err
	}
	m.SetRetryPolicy(fleet.RetryPolicy{MaxAttempts: s.Attempts})
	// Private initiator-side randomness per handshake: the ordinal
	// counts every attempt to a peer across the whole point (bring-up,
	// retries, churn reconnects), so no two handshakes share a stream.
	var hsMu sync.Mutex
	ordinals := make(map[ecqv.ID]uint64)
	m.SetHandshakeRand(func(peer ecqv.ID, attempt int) io.Reader {
		hsMu.Lock()
		n := ordinals[peer]
		ordinals[peer] = n + 1
		hsMu.Unlock()
		return detrand.NewReader(detrand.DeriveSeed(s.Seed, peer[:], 0xA11CE, n))
	})
	m.SetCarrier(func(peer *core.Party) (fleet.Carrier, error) {
		c, ok := fab.carriers[peer.ID]
		if !ok {
			return nil, fmt.Errorf("scenario: no carrier for %s", peer.ID)
		}
		return c, nil
	})

	pt := Point{Axis: axis, Value: v}
	switch s.Workload {
	case WorkloadLatency:
		start := fab.now()
		samples := serialHandshakes(m, peers, fab, &pt, tr)
		pt.WorkloadTimeUS = us(fab.now() - start)
		pt.Latency = latencyStats(samples)

	case WorkloadAttack:
		advs, err := buildAdversaries(s, v, fab, peers)
		if err != nil {
			return Point{}, err
		}
		start := fab.now()
		for _, adv := range advs {
			adv.Arm(start)
		}
		samples := serialHandshakes(m, peers, fab, &pt, tr)
		fab.world.Run()
		for _, adv := range advs {
			adv.Disarm()
		}
		if err := executeAdversaries(advs, tr); err != nil {
			return Point{}, err
		}
		pt.WorkloadTimeUS = us(fab.now() - start)
		pt.Latency = latencyStats(samples)
		pt.Attacks = attackAccounts(advs, tr)

	case WorkloadDayInLife:
		advs, err := buildAdversaries(s, v, fab, peers)
		if err != nil {
			return Point{}, err
		}
		start := fab.now()
		phase := func(name string, t0 time.Duration) {
			dt := fab.now() - t0
			pt.Phases = append(pt.Phases, PhaseTime{Phase: name, TimeUS: us(dt)})
			tr.printf("phase %s t=%dns\n", name, dt.Nanoseconds())
		}

		t0 := fab.now()
		for _, err := range establishAllFn(m, peers, s.Parallelism) {
			if err != nil {
				pt.Errors++
			}
		}
		phase("bringup", t0)

		// Steady traffic: one full rekey round (Connect always runs a
		// fresh handshake, modelling policy-driven rekeys in service).
		t0 = fab.now()
		for _, p := range peers {
			if err := m.Connect(p); err != nil {
				pt.Errors++
			}
		}
		phase("steady", t0)

		// One churn round: the even-indexed half leaves and rejoins.
		t0 = fab.now()
		var half []*core.Party
		for i := 0; i < len(peers); i += 2 {
			half = append(half, peers[i])
		}
		for _, p := range half {
			m.Disconnect(p.ID)
		}
		for _, err := range establishAllFn(m, half, s.Parallelism) {
			if err != nil {
				pt.Errors++
			}
		}
		phase("churn", t0)

		// The attack burst: adversaries armed for one rekey round.
		t0 = fab.now()
		for _, adv := range advs {
			adv.Arm(t0)
		}
		samples := serialHandshakes(m, peers, fab, &pt, tr)
		fab.world.Run()
		for _, adv := range advs {
			adv.Disarm()
		}
		if err := executeAdversaries(advs, tr); err != nil {
			return Point{}, err
		}
		phase("attack", t0)

		pt.WorkloadTimeUS = us(fab.now() - start)
		pt.Latency = latencyStats(samples)
		pt.Attacks = attackAccounts(advs, tr)

	case WorkloadBringup:
		start := fab.now()
		for _, err := range establishAllFn(m, peers, s.Parallelism) {
			if err != nil {
				pt.Errors++
			}
		}
		pt.WorkloadTimeUS = us(fab.now() - start)

	case WorkloadChurn:
		start := fab.now()
		for _, err := range establishAllFn(m, peers, s.Parallelism) {
			if err != nil {
				pt.Errors++
			}
		}
		// Every round, the even-indexed half leaves and rejoins.
		var half []*core.Party
		for i := 0; i < len(peers); i += 2 {
			half = append(half, peers[i])
		}
		var roundTimes []time.Duration
		for r := 0; r < s.ChurnRounds; r++ {
			for _, p := range half {
				m.Disconnect(p.ID)
			}
			t0 := fab.now()
			for _, err := range establishAllFn(m, half, s.Parallelism) {
				if err != nil {
					pt.Errors++
				}
			}
			dt := fab.now() - t0
			roundTimes = append(roundTimes, dt)
			tr.printf("churn round=%d peers=%d t=%dns\n", r, len(half), dt.Nanoseconds())
		}
		pt.WorkloadTimeUS = us(fab.now() - start)
		cs := &ChurnStats{Rounds: s.ChurnRounds, PeersPerRound: len(half)}
		var sum, max time.Duration
		for _, d := range roundTimes {
			sum += d
			if d > max {
				max = d
			}
		}
		if len(roundTimes) > 0 {
			cs.MeanRoundTimeUS = us(sum) / float64(len(roundTimes))
			cs.MaxRoundTimeUS = us(max)
		}
		pt.Churn = cs
	}

	st := m.Stats()
	pt.Handshakes = st.Handshakes
	pt.Retries = st.HandshakeRetries
	pt.FailedAttempts = st.FailedAttempts
	pt.WorstAttempts = st.WorstAttempts
	fab.counters(&pt)

	for _, sa := range pt.Steps {
		tr.printf("step %s messages=%d frames=%d retransmits=%d waits=%d resends=%d aborted=%d payload=%d wire=%.3fus queue=%.3fus\n",
			sa.Step, sa.Messages, sa.Frames, sa.Retransmits, sa.WaitsHonoured, sa.Resends, sa.Aborted, sa.PayloadBytes, sa.WireTimeUS, sa.QueueTimeUS)
	}
	tr.printf("summary errors=%d handshakes=%d retries=%d failed=%d retransmits=%d resends=%d integrity_drops=%d protocol_drops=%d dropped=%d corrupted=%d duplicated=%d rx_overflow=%d forwarded=%d egress_dropped=%d sim=%dns\n",
		pt.Errors, pt.Handshakes, pt.Retries, pt.FailedAttempts, pt.Retransmits, pt.MessageResends,
		pt.IntegrityDrops, pt.ProtocolDrops, pt.BusDropped, pt.BusCorrupted, pt.BusDuplicated,
		pt.RxOverflow, pt.GatewayForwarded, pt.GatewayEgressDropped, fab.now().Nanoseconds())
	return pt, nil
}

// serialHandshakes runs one fresh handshake per peer, in peer order,
// recording each success's simulated latency. Shared by the latency
// workload and the attack workloads (where the samples become the
// victim-latency percentiles).
func serialHandshakes(m *fleet.Manager, peers []*core.Party, fab *fabric, pt *Point, tr *tracer) []time.Duration {
	var samples []time.Duration
	for _, p := range peers {
		t0 := fab.now()
		if err := m.Connect(p); err != nil {
			pt.Errors++
			tr.printf("handshake peer=%s FAILED\n", p.ID)
			continue
		}
		dt := fab.now() - t0
		samples = append(samples, dt)
		tr.printf("handshake peer=%s t=%dns\n", p.ID, dt.Nanoseconds())
	}
	return samples
}

// buildAdversaries constructs and attaches the point's adversaries on
// its private fabric, registering each with the world pump. Config
// order is build, pump and accounting order — all deterministic.
func buildAdversaries(s Scenario, v float64, fab *fabric, peers []*core.Party) ([]Adversary, error) {
	cfgs := s.adversariesAt(v)
	sur := &Surface{
		World:    fab.world,
		Clock:    fab.world.Clock,
		Buses:    fab.buses,
		Gateways: fab.gateways,
		Peers:    peers,
		Remotes:  fab.remotes,
		Seed:     s.Seed,
	}
	advs := make([]Adversary, 0, len(cfgs))
	for i, cfg := range cfgs {
		adv, err := newAdversary(cfg, s.Seed, i)
		if err != nil {
			return nil, err
		}
		if err := adv.Attach(sur); err != nil {
			return nil, err
		}
		fab.world.AddAgent(adv)
		advs = append(advs, adv)
	}
	return advs, nil
}

// executeAdversaries runs the deferred attack phases (the replay
// attacker's re-injection) after the workload, in config order.
func executeAdversaries(advs []Adversary, tr *tracer) error {
	for _, adv := range advs {
		if ex, ok := adv.(executor); ok {
			if err := ex.Execute(tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// attackAccounts collects the per-adversary accounting and writes the
// attack trace lines.
func attackAccounts(advs []Adversary, tr *tracer) []AttackAccount {
	out := make([]AttackAccount, 0, len(advs))
	for _, adv := range advs {
		acc := adv.Account()
		out = append(out, acc)
		tr.printf("attack kind=%s segment=%d intensity=%g injected=%d forged_fc=%d forged_cf=%d recorded=%d replayed=%d rejected_auth=%d rejected_protocol=%d accepted=%d partitions=%d heals=%d partition_drops=%d\n",
			acc.Kind, acc.Segment, acc.Intensity, acc.InjectedFrames,
			acc.ForgedFlowControls, acc.ForgedConsecutives,
			acc.RecordedSessions, acc.ReplayedSessions, acc.RejectedAuth, acc.RejectedProtocol, acc.AcceptedReplays,
			acc.Partitions, acc.Heals, acc.PartitionDrops)
	}
	return out
}
