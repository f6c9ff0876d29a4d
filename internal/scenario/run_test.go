package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/fleet"
)

// parallelSweep is the reference multi-point sweep for the worker
// fan-out tests: 8 points, impaired multi-segment fabric, so each
// point does real recovery work on its own isolated world.
func parallelSweep() Scenario {
	s := smallScenario(WorkloadLatency)
	s.Name = "parallel-sweep"
	s.Profile.Corrupt = 0.01
	s.SweepAxis = AxisDrop
	s.SweepPoints = []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08}
	return s
}

// TestParallelSweepMatchesSerial is the tentpole invariant: fanning
// sweep points across workers changes wall-clock only — the Result,
// its JSON encoding and the full trace are byte-identical to the
// serial run at every worker count.
func TestParallelSweepMatchesSerial(t *testing.T) {
	s := parallelSweep()
	want, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wantTrace bytes.Buffer
	if _, _, err := RunWith(s, Options{Workers: 1}, NewTraceSink(&wantTrace)); err != nil {
		t.Fatal(err)
	}
	var wantJSON bytes.Buffer
	if err := WriteJSON(&wantJSON, want); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 8, 0} { // 0 = one per core
		got, timing, err := RunWith(s, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d changed the result:\nserial   %+v\nparallel %+v", workers, want, got)
		}
		var gotJSON bytes.Buffer
		if err := WriteJSON(&gotJSON, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
			t.Fatalf("workers=%d changed the JSON bytes", workers)
		}
		if len(timing.Points) != len(want.Points) || timing.WallClock <= 0 {
			t.Fatalf("workers=%d timing implausible: %+v", workers, timing)
		}
		for i, d := range timing.Points {
			if d <= 0 {
				t.Fatalf("workers=%d point %d has no wall-clock time", workers, i)
			}
		}

		var gotTrace bytes.Buffer
		if _, _, err := RunWith(s, Options{Workers: workers}, NewTraceSink(&gotTrace)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotTrace.Bytes(), wantTrace.Bytes()) {
			t.Fatalf("workers=%d changed the trace (%d vs %d bytes)", workers, gotTrace.Len(), wantTrace.Len())
		}
	}
}

// TestParallelSweepRace is the race-detector target CI runs
// explicitly: concurrent isolated worlds, tracing enabled, nested
// EstablishAll concurrency inside each point — everything the
// parallel fabric shares (nothing) under -race scrutiny.
//
// The Result must match the serial run exactly (the fleet-level
// schedule-invariance promise: counters, per-step accounting and
// simulated end time are a function of the seed alone). The trace
// BYTES are deliberately not compared here: with EstablishAll
// parallelism > 1 inside a point, absolute fault timestamps and line
// order depend on goroutine interleaving even between two serial
// runs — a pre-existing engine property the chaos suite pins the same
// way (counters only). Byte-identical traces across worker counts are
// asserted by TestParallelSweepMatchesSerial on a parallelism-1
// scenario, the configuration whose trace is deterministic at all.
func TestParallelSweepRace(t *testing.T) {
	s := smallScenario(WorkloadBringup)
	s.Name = "race-sweep"
	s.Parallelism = 3
	s.Egress = canbus.EgressPolicy{Rate: 600, Queue: 128}
	s.SweepAxis = AxisDrop
	s.SweepPoints = []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08}

	var serial bytes.Buffer
	want, _, err := RunWith(s, Options{Workers: 1}, NewTraceSink(&serial))
	if err != nil {
		t.Fatal(err)
	}
	var parallel bytes.Buffer
	got, timing, err := RunWith(s, Options{Workers: 8}, NewTraceSink(&parallel))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent traced run diverged from serial:\nserial   %+v\nparallel %+v", want, got)
	}
	if parallel.Len() == 0 || serial.Len() == 0 {
		t.Fatal("traced runs produced no trace")
	}
	if timing.Workers != 8 || timing.MaxInFlight < 1 || timing.MaxInFlight > 8 {
		t.Fatalf("timing implausible: %+v", timing)
	}
}

// TestRunRecordsPointError: one pathological sweep point must not
// abort the rest — its failure is recorded in place, index-aligned,
// and the emitted JSON still passes the schema gate.
func TestRunRecordsPointError(t *testing.T) {
	orig := runPointFn
	defer func() { runPointFn = orig }()
	runPointFn = func(s Scenario, v float64, axis Axis, tr *tracer) (Point, error) {
		if v == 0.05 {
			return Point{}, fmt.Errorf("injected fabric failure at %v", v)
		}
		return runPoint(s, v, axis, tr)
	}

	s := smallScenario(WorkloadLatency)
	s.SweepAxis = AxisDrop
	s.SweepPoints = []float64{0, 0.05, 0.10}
	var trace bytes.Buffer
	res, _, err := RunWith(s, Options{Workers: 2}, NewTraceSink(&trace))
	if err != nil {
		t.Fatalf("a failed point aborted the sweep: %v", err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("sweep lost points: %d of 3", len(res.Points))
	}
	bad := res.Points[1]
	if bad.Error == "" || !strings.Contains(bad.Error, "injected fabric failure") {
		t.Fatalf("failed point not recorded: %+v", bad)
	}
	if bad.Value != 0.05 || bad.Handshakes != 0 {
		t.Fatalf("failed point misrecorded: %+v", bad)
	}
	for _, i := range []int{0, 2} {
		if res.Points[i].Error != "" || res.Points[i].Handshakes != s.Peers {
			t.Fatalf("surviving point %d damaged: %+v", i, res.Points[i])
		}
	}
	if !strings.Contains(trace.String(), "point-error drop=0.0500: injected fabric failure") {
		t.Errorf("trace missing the point-error line:\n%s", trace.String())
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateJSON(buf.Bytes()); err != nil {
		t.Fatalf("result with a failed point fails the schema gate: %v", err)
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "injected fabric failure") {
		t.Error("CSV row lost the point error")
	}
}

// TestSharedEgressScenario: the shared-capacity variant threads
// through the scenario engine — aggregate-capped gateways are slower
// than per-flow-capped ones at the same nominal rate, and the run
// stays deterministic.
func TestSharedEgressScenario(t *testing.T) {
	perFlow := smallScenario(WorkloadLatency)
	perFlow.Profile = Profile{}
	perFlow.Egress = canbus.EgressPolicy{Rate: 400}
	shared := perFlow
	shared.Egress.Shared = true

	rPer, _, err := RunWith(perFlow, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rShared, _, err := RunWith(shared, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rShared.Points[0].Errors != 0 {
		t.Fatalf("shared-capacity egress failed handshakes: %+v", rShared.Points[0])
	}
	if rShared.Points[0].SimTimeUS <= rPer.Points[0].SimTimeUS {
		t.Errorf("shared capacity (%.0fus) not slower than per-flow (%.0fus) at the same rate",
			rShared.Points[0].SimTimeUS, rPer.Points[0].SimTimeUS)
	}
	again, _, err := RunWith(shared, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, rShared) {
		t.Fatal("shared-capacity scenario not deterministic")
	}
}

// TestDuplicateSweepPoints: a sweep spec listing the same value twice
// measures it twice — two index-aligned, bit-identical points, never
// a silent dedup.
func TestDuplicateSweepPoints(t *testing.T) {
	s := smallScenario(WorkloadLatency)
	s.SweepAxis = AxisDrop
	s.SweepPoints = []float64{0.05, 0.05}
	res, _, err := RunWith(s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("duplicate points collapsed: %d of 2", len(res.Points))
	}
	if !reflect.DeepEqual(res.Points[0], res.Points[1]) {
		t.Fatalf("identical sweep values measured differently:\n%+v\n%+v", res.Points[0], res.Points[1])
	}
}

// TestDayInLifeHonorsParallelism is the regression gate for the
// hardcoded EstablishAll(…, 1) bug: the day-in-the-life bringup and
// churn phases must request Scenario.Parallelism. The Result is
// schedule-invariant by contract, so the only observable evidence is
// the parallelism actually passed to the fleet — captured through the
// establishAllFn seam — plus a DeepEqual against the serial run to
// prove the measurements did not move.
func TestDayInLifeHonorsParallelism(t *testing.T) {
	dayInLife := func(parallelism int) Scenario {
		s := smallScenario(WorkloadDayInLife)
		s.Name = "day-in-life-par"
		s.Parallelism = parallelism
		return s
	}

	// Adversary-free day-in-the-life at Parallelism > 1 must validate:
	// the adversary × Parallelism>1 rejection only bites when
	// adversaries are configured.
	if err := dayInLife(3).Validate(); err != nil {
		t.Fatalf("adversary-free day-in-the-life at parallelism 3 rejected: %v", err)
	}
	armed := dayInLife(3)
	armed.Adversaries = []AdversaryConfig{{Kind: AdversaryReplay, Segment: -1}}
	if err := armed.Validate(); err == nil {
		t.Fatal("adversaries at parallelism 3 validated — the rejection must stay")
	}

	var calls []int
	orig := establishAllFn
	establishAllFn = func(m *fleet.Manager, peers []*core.Party, parallelism int) []error {
		calls = append(calls, parallelism)
		return m.EstablishAll(peers, parallelism)
	}
	defer func() { establishAllFn = orig }()

	res3, _, err := RunWith(dayInLife(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 { // bringup phase + churn phase
		t.Fatalf("day-in-the-life made %d EstablishAll calls, want 2: %v", len(calls), calls)
	}
	for i, p := range calls {
		if p != 3 {
			t.Fatalf("EstablishAll call %d requested parallelism %d, want 3 (the knob was ignored)", i, p)
		}
	}

	calls = nil
	res1, _, err := RunWith(dayInLife(1), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res3, res1) {
		t.Fatal("day-in-the-life measurements moved with parallelism — schedule invariance broken")
	}
	if len(res1.Points) != 1 || len(res1.Points[0].Phases) != 4 {
		t.Fatalf("composite phases damaged: %+v", res1.Points)
	}
	if len(res1.Points[0].Attacks) != 0 {
		t.Fatalf("adversary-free run reported attack accounting: %+v", res1.Points[0].Attacks)
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, res1); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateJSON(buf.Bytes()); err != nil {
		t.Fatalf("adversary-free day-in-the-life fails the schema gate: %v", err)
	}
}

// TestZeroPointSweepRejected: the declared-but-empty sweep must be
// refused by every entry point instead of emitting an empty curve
// from a zero-worker run.
func TestZeroPointSweepRejected(t *testing.T) {
	s := smallScenario(WorkloadLatency)
	s.SweepAxis = AxisDrop
	s.SweepPoints = []float64{}
	if _, _, err := RunWith(s, Options{Workers: 4}); err == nil {
		t.Fatal("RunWith accepted a zero-point sweep")
	}
	if _, err := RunStreamWith(s, []PointSink{&collectSink{}}, Options{Workers: 4}); err == nil {
		t.Fatal("RunStreamWith accepted a zero-point sweep")
	}
}
