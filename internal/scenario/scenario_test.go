package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/canbus"
)

// -update regenerates the committed golden files (trace and schema).
var update = flag.Bool("update", false, "rewrite golden testdata files")

// smallScenario is a fast 3-segment scenario used across the tests.
func smallScenario(workload Workload) Scenario {
	return Scenario{
		Name:           "test-" + string(workload),
		Seed:           42,
		Peers:          3,
		Segments:       3,
		GatewayLatency: 50 * time.Microsecond,
		Profile:        Profile{Drop: 0.03, Corrupt: 0.01},
		Workload:       workload,
		Attempts:       10,
	}
}

func TestLatencyVsLossCurve(t *testing.T) {
	s := smallScenario(WorkloadLatency)
	s.SweepAxis = AxisDrop
	s.SweepPoints = []float64{0, 0.05, 0.10}
	res, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("measured %d points, want 3", len(res.Points))
	}
	lossless := res.Points[0]
	if lossless.Errors != 0 || lossless.Retransmits != 0 || lossless.MessageResends != 0 || lossless.Retries != 0 {
		t.Fatalf("lossless point paid recovery costs: %+v", lossless)
	}
	if lossless.Latency == nil || lossless.Latency.MeanUS <= 0 {
		t.Fatalf("lossless point has no latency: %+v", lossless.Latency)
	}
	for _, p := range res.Points[1:] {
		if p.Errors != 0 {
			t.Fatalf("%v loss failed %d handshakes", p.Value, p.Errors)
		}
		if p.BusDropped == 0 {
			t.Errorf("%v loss dropped no frames", p.Value)
		}
		if p.Retransmits+p.MessageResends+p.Retries == 0 {
			t.Errorf("%v loss forced no recovery", p.Value)
		}
		if p.Latency.MeanUS <= lossless.Latency.MeanUS {
			t.Errorf("mean latency %v at %v loss not above lossless %v",
				p.Latency.MeanUS, p.Value, lossless.Latency.MeanUS)
		}
	}
}

func TestPerStepAccountingCoversTableII(t *testing.T) {
	s := smallScenario(WorkloadLatency)
	s.Profile = Profile{Drop: 0.05}
	res, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	got := map[string]StepAccount{}
	for _, sa := range pt.Steps {
		got[sa.Step] = sa
	}
	for _, step := range []string{"A1", "B1", "A2", "B2"} {
		sa, ok := got[step]
		if !ok {
			t.Fatalf("Table II step %s missing from accounting: %+v", step, pt.Steps)
		}
		// Every converged handshake completes each step at least once.
		if sa.Messages < s.Peers {
			t.Errorf("step %s completed %d messages, want ≥ %d", step, sa.Messages, s.Peers)
		}
		if sa.Frames == 0 || sa.WireTimeUS == 0 {
			t.Errorf("step %s has no wire accounting: %+v", step, sa)
		}
	}
	// Per-step retransmit rows must sum to the endpoint aggregate.
	sum := 0
	for _, sa := range pt.Steps {
		sum += sa.Retransmits
	}
	if sum != pt.Retransmits {
		t.Errorf("per-step retransmits %d != aggregate %d", sum, pt.Retransmits)
	}
}

func TestRunDeterministic(t *testing.T) {
	s := smallScenario(WorkloadLatency)
	s.SweepAxis = AxisDrop
	s.SweepPoints = []float64{0.04, 0.08}
	r1, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same scenario diverged:\n%+v\n%+v", r1, r2)
	}
	var t1, t2 bytes.Buffer
	if _, _, err := RunWith(s, Options{Workers: 1}, NewTraceSink(&t1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunWith(s, Options{Workers: 1}, NewTraceSink(&t2)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("same scenario produced different traces")
	}
}

func TestBringupWorkload(t *testing.T) {
	s := smallScenario(WorkloadBringup)
	s.Parallelism = 3
	res, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Errors != 0 || pt.Handshakes != s.Peers {
		t.Fatalf("bring-up wrong: %+v", pt)
	}
	if pt.WorkloadTimeUS <= 0 {
		t.Error("no bring-up time measured")
	}
	if pt.GatewayForwarded == 0 {
		t.Error("multi-segment topology forwarded nothing")
	}
}

func TestChurnWorkload(t *testing.T) {
	s := smallScenario(WorkloadChurn)
	s.ChurnRounds = 2
	res, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Churn == nil || pt.Churn.Rounds != 2 {
		t.Fatalf("churn stats missing: %+v", pt.Churn)
	}
	// 3 peers → 2 even-indexed churners per round.
	wantHS := s.Peers + 2*pt.Churn.PeersPerRound
	if pt.Errors != 0 || pt.Handshakes != wantHS {
		t.Fatalf("churn ran %d handshakes with %d errors, want %d/0", pt.Handshakes, pt.Errors, wantHS)
	}
	if pt.Churn.MeanRoundTimeUS <= 0 || pt.Churn.MaxRoundTimeUS < pt.Churn.MeanRoundTimeUS {
		t.Errorf("round time stats implausible: %+v", pt.Churn)
	}
}

func TestEgressCongestionSlowsBringup(t *testing.T) {
	fast := smallScenario(WorkloadLatency)
	fast.Profile = Profile{}
	slow := fast
	// 200 frames/s: a 5 ms serialization gap per forwarded frame,
	// roughly 10× a frame's wire time — congestion that must dominate.
	slow.Egress = canbus.EgressPolicy{Rate: 200}
	rFast, _, err := RunWith(fast, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rSlow, _, err := RunWith(slow, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rSlow.Points[0].Errors != 0 {
		t.Fatalf("congestion failed handshakes: %+v", rSlow.Points[0])
	}
	if rSlow.Points[0].Latency.MeanUS <= rFast.Points[0].Latency.MeanUS {
		t.Errorf("congested gateway (%.1fus) not slower than uncongested (%.1fus)",
			rSlow.Points[0].Latency.MeanUS, rFast.Points[0].Latency.MeanUS)
	}
}

// TestCongestedBringupScheduleInvariant is the engine-level version of
// the fleet chaos assertion: a bring-up sweep through egress-congested
// gateways measures the identical Result — every counter, latency and
// simulated time — at any EstablishAll parallelism. This was the
// documented hole PR 4 left open ("keep parallelism 1 there").
func TestCongestedBringupScheduleInvariant(t *testing.T) {
	base := smallScenario(WorkloadBringup)
	base.Name = "congested-invariance"
	// 600 frames/s ⇒ ~1.7 ms release gap per conversation flow:
	// solidly congested next to the ~0.4 ms frame wire time.
	base.Egress = canbus.EgressPolicy{Rate: 600, Queue: 128}
	base.SweepAxis = AxisDrop
	base.SweepPoints = []float64{0, 0.03}

	serial := base
	serial.Parallelism = 1
	want, _, err := RunWith(serial, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range want.Points {
		if pt.Errors != 0 {
			t.Fatalf("congested serial sweep failed handshakes: %+v", pt)
		}
	}
	for _, parallelism := range []int{3, 8} {
		conc := base
		conc.Parallelism = parallelism
		got, _, err := RunWith(conc, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d changed the congested sweep:\nserial   %+v\nparallel %+v", parallelism, want, got)
		}
	}
}

// TestQueueTimeAccountedUnderCongestion: the per-step rows of a
// congested run must carry queueing delay, and an uncongested run must
// not.
func TestQueueTimeAccountedUnderCongestion(t *testing.T) {
	open := smallScenario(WorkloadLatency)
	open.Profile = Profile{}
	congested := open
	congested.Egress = canbus.EgressPolicy{Rate: 200}

	rOpen, _, err := RunWith(open, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rCong, _, err := RunWith(congested, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(r *Result) float64 {
		var q float64
		for _, sa := range r.Points[0].Steps {
			q += sa.QueueTimeUS
		}
		return q
	}
	if q := sum(rCong); q <= 0 {
		t.Errorf("congested run accounted no per-step queueing delay: %+v", rCong.Points[0].Steps)
	}
	if q := sum(rOpen); q >= sum(rCong) {
		t.Errorf("uncongested queue time %.1fus not below congested %.1fus", q, sum(rCong))
	}
}

func TestValidateJSONRoundTrip(t *testing.T) {
	s := smallScenario(WorkloadLatency)
	res, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateJSON(buf.Bytes()); err != nil {
		t.Fatalf("emitted JSON failed its own schema check: %v", err)
	}

	// An unknown field — schema drift in the writer — must fail.
	drifted := bytes.Replace(buf.Bytes(), []byte(`"schema_version"`), []byte(`"stray_field": 1, "schema_version"`), 1)
	if _, err := ValidateJSON(drifted); err == nil {
		t.Error("unknown field passed the schema check")
	}
	// A renamed required field must fail.
	renamed := bytes.Replace(buf.Bytes(), []byte(`"points"`), []byte(`"samples"`), 1)
	if _, err := ValidateJSON(renamed); err == nil {
		t.Error("renamed points field passed the schema check")
	}
	// A wrong schema version must fail.
	var generic map[string]any
	if err := json.Unmarshal(buf.Bytes(), &generic); err != nil {
		t.Fatal(err)
	}
	generic["schema_version"] = SchemaVersion + 1
	bumped, _ := json.Marshal(generic)
	if _, err := ValidateJSON(bumped); err == nil {
		t.Error("future schema version passed the check")
	}
}

func TestWriteCSV(t *testing.T) {
	s := smallScenario(WorkloadLatency)
	s.SweepAxis = AxisDrop
	s.SweepPoints = []float64{0, 0.05}
	res, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 points", len(lines))
	}
	if got := strings.Count(lines[0], ","); got != len(csvHeader)-1 {
		t.Errorf("header has %d commas, want %d", got, len(csvHeader)-1)
	}
	for i, line := range lines[1:] {
		if strings.Count(line, ",") != len(csvHeader)-1 {
			t.Errorf("row %d column count mismatch: %s", i, line)
		}
	}
}

func TestSweepOtherAxes(t *testing.T) {
	s := smallScenario(WorkloadLatency)
	s.Profile = Profile{}
	s.SweepAxis = AxisCorrupt
	s.SweepPoints = []float64{0, 0.05}
	res, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Axis != AxisCorrupt || res.Points[1].BusCorrupted == 0 {
		t.Fatalf("corrupt sweep did not corrupt: %+v", res.Points[1])
	}
	if res.Points[0].BusCorrupted != 0 {
		t.Errorf("corrupt sweep at 0 corrupted frames: %+v", res.Points[0])
	}

	s.SweepAxis = AxisDuplicate
	res, _, err = RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[1].BusDuplicated == 0 {
		t.Fatalf("duplicate sweep did not duplicate: %+v", res.Points[1])
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{},                       // no name / peers
		{Name: "x"},              // no peers
		{Name: "x", Peers: 1000}, // ID block overflow
		{Name: "x", Peers: 2, Workload: "warp"},
		{Name: "x", Peers: 2, Profile: Profile{Drop: 1.5}},
		{Name: "x", Peers: 2, SweepAxis: "phase"},
		{Name: "x", Peers: 2, SweepPoints: []float64{0.5}}, // points without axis
		{Name: "x", Peers: 2, SweepAxis: AxisDrop, SweepPoints: []float64{2}},
		// A declared-but-empty sweep used to clamp workers to 0 and
		// emit an empty curve with Timing.Workers=0 and no diagnostic;
		// now it is a validation error.
		{Name: "x", Peers: 2, SweepAxis: AxisDrop, SweepPoints: []float64{}},
		// The one egress × concurrency corner that is still not
		// schedule-invariant: a trailing duplicate can be gated when
		// the workload ends, so which run counts it is scheduling.
		{Name: "x", Peers: 2, Egress: canbus.EgressPolicy{Rate: 100}, Parallelism: 4, Profile: Profile{Duplicate: 0.05}},
		{Name: "x", Peers: 2, Egress: canbus.EgressPolicy{Rate: 100}, Parallelism: 4, SweepAxis: AxisDuplicate, SweepPoints: []float64{0.05}},
		// Shared-capacity egress couples flows through the aggregate
		// rate, so concurrent conversation admission is schedule-
		// dependent by design — rejected at parallelism > 1.
		{Name: "x", Peers: 2, Egress: canbus.EgressPolicy{Rate: 100, Shared: true}, Parallelism: 4},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("scenario %d validated: %+v", i, s)
		}
	}
	good := smallScenario(WorkloadLatency)
	if err := good.Validate(); err != nil {
		t.Errorf("good scenario rejected: %v", err)
	}
	// The fair-queuing scheduler made congested concurrent sweeps
	// schedule-invariant, so (absent duplication) they validate now.
	congested := smallScenario(WorkloadBringup)
	congested.Egress = canbus.EgressPolicy{Rate: 400, Queue: 64}
	congested.Parallelism = 8
	if err := congested.Validate(); err != nil {
		t.Errorf("congested concurrent scenario rejected: %v", err)
	}
	// Shared capacity is fine serially (and at any sweep-point worker
	// count — points never share a port).
	sharedSerial := smallScenario(WorkloadBringup)
	sharedSerial.Egress = canbus.EgressPolicy{Rate: 400, Queue: 64, Shared: true}
	if err := sharedSerial.Validate(); err != nil {
		t.Errorf("serial shared-capacity scenario rejected: %v", err)
	}
}

// jsonKeyPaths walks a JSON document and returns every object key as
// a dotted path (arrays collapse to []), the schema fingerprint the
// golden schema file pins.
func jsonKeyPaths(v any, prefix string, into map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			into[p] = true
			jsonKeyPaths(sub, p, into)
		}
	case []any:
		for _, sub := range x {
			jsonKeyPaths(sub, prefix+"[]", into)
		}
	}
}

func TestResultSchemaGolden(t *testing.T) {
	s := smallScenario(WorkloadChurn) // churn populates every optional block except latency
	s.Egress = canbus.EgressPolicy{Rate: 5000, Queue: 64}
	res, _, err := RunWith(s, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lat, _, err := RunWith(smallScenario(WorkloadLatency), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	for _, r := range []*Result{res, lat} {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var generic any
		if err := json.Unmarshal(raw, &generic); err != nil {
			t.Fatal(err)
		}
		jsonKeyPaths(generic, "", paths)
	}
	var sorted []string
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	got := strings.Join(sorted, "\n") + "\n"
	compareGolden(t, "testdata/schema.golden", []byte(got))
}
