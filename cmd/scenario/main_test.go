package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "curve.json")
	csvPath := filepath.Join(dir, "curve.csv")
	tracePath := filepath.Join(dir, "trace.txt")
	benchPath := filepath.Join(dir, "bench.json")

	var out bytes.Buffer
	err := run([]string{
		"-name", "cli-test", "-peers", "2", "-segments", "2", "-seed", "7",
		"-sweep", "drop:0,0.05",
		"-json", jsonPath, "-csv", csvPath, "-trace", tracePath, "-bench", benchPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.ValidateJSON(data)
	if err != nil {
		t.Fatalf("emitted JSON fails the schema gate: %v", err)
	}
	if res.Name != "cli-test" || len(res.Points) != 2 {
		t.Fatalf("unexpected result: %+v", res)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(string(csv)), "\n"); lines != 2 {
		t.Errorf("CSV has %d data lines, want 2", lines)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), "summary errors=0") {
		t.Error("trace missing point summary")
	}

	// The validate mode accepts its own output.
	out.Reset()
	if err := run([]string{"-validate", jsonPath}, &out); err != nil {
		t.Fatalf("-validate rejected fresh output: %v", err)
	}
	if !strings.Contains(out.String(), "schema v4 ok") {
		t.Errorf("validate output: %q", out.String())
	}

	// Re-running with the same name replaces the bench entry in place.
	if err := run([]string{
		"-name", "cli-test", "-peers", "2", "-segments", "2", "-seed", "7",
		"-json", jsonPath, "-bench", benchPath,
	}, &out); err != nil {
		t.Fatal(err)
	}
	var doc benchFile
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Scenarios) != 1 || doc.Scenarios[0].Name != "cli-test" {
		t.Fatalf("bench trajectory wrong: %d entries", len(doc.Scenarios))
	}
	if doc.Paper == "" || doc.Methodology == "" {
		t.Error("bench header incomplete")
	}
}

func TestCLIJSONToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-name", "stdout-test", "-peers", "1", "-segments", "1", "-workload", "bringup"}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.ValidateJSON(out.Bytes()); err != nil {
		t.Fatalf("stdout JSON invalid: %v", err)
	}
}

func TestCLIDelayProfile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{
		"-name", "delay-test", "-peers", "1", "-segments", "1",
		"-delay-rate", "1", "-delay", "1ms",
	}, &out); err != nil {
		t.Fatal(err)
	}
	res, err := scenario.ValidateJSON(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Points[0]; p.Errors != 0 || p.BusDelayed == 0 {
		t.Fatalf("delay profile did not delay frames: %+v", p)
	}
}

func TestCLIErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-peers", "0"},                      // invalid scenario
		{"-workload", "warp", "-peers", "2"}, // unknown workload
		{"-sweep", "drop:zero"},              // bad sweep point
		{"-validate", "/nonexistent/x.json"}, // unreadable file
		// The one remaining non-reproducible combination: duplication
		// through a rate-limited egress port at parallelism > 1.
		{"-peers", "2", "-workload", "bringup", "-parallelism", "4", "-egress-rate", "100", "-duplicate", "0.05"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v succeeded", args)
		}
	}
}

// TestCLICheckInvariance runs a congested concurrent bring-up — the
// configuration that could not exist before the fair-queuing egress
// scheduler — with the schedule-invariance self-check armed: the CLI
// re-runs it serially and fails on any byte of divergence. The
// confirmation goes to stderr, so stdout is exactly one document.
func TestCLICheckInvariance(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{
		"-name", "inv-test", "-peers", "3", "-segments", "3", "-seed", "9",
		"-workload", "bringup", "-parallelism", "4",
		"-egress-rate", "600", "-egress-queue", "64", "-drop", "0.02",
		"-check-invariance",
	}, &out); err != nil {
		t.Fatalf("invariance self-check failed: %v", err)
	}
	if _, err := scenario.ValidateJSON(out.Bytes()); err != nil {
		t.Fatalf("stdout is not exactly one valid document: %v", err)
	}
}

// TestCLIWorkersFlag pins the -workers edge cases: 0 means one worker
// per core, any positive count is accepted and byte-identical to
// serial, negative is a flag error before anything runs.
func TestCLIWorkersFlag(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-name", "workers-test", "-peers", "2", "-segments", "2", "-seed", "11",
		"-sweep", "drop:0,0.02,0.04,0.06",
	}
	outputs := map[string][]byte{}
	for _, w := range []string{"1", "8", "0"} {
		jsonPath := filepath.Join(dir, "w"+w+".json")
		csvPath := filepath.Join(dir, "w"+w+".csv")
		tracePath := filepath.Join(dir, "w"+w+".trace")
		var out bytes.Buffer
		args := append(append([]string{}, base...),
			"-workers", w, "-json", jsonPath, "-csv", csvPath, "-trace", tracePath)
		if err := run(args, &out); err != nil {
			t.Fatalf("-workers %s failed: %v", w, err)
		}
		for _, p := range []string{jsonPath, csvPath, tracePath} {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			outputs["w"+w+filepath.Ext(p)] = data
		}
	}
	for _, ext := range []string{".json", ".csv", ".trace"} {
		if !bytes.Equal(outputs["w1"+ext], outputs["w8"+ext]) {
			t.Errorf("-workers 8 changed the %s output", ext)
		}
		if !bytes.Equal(outputs["w1"+ext], outputs["w0"+ext]) {
			t.Errorf("-workers 0 (auto) changed the %s output", ext)
		}
	}

	var out bytes.Buffer
	if err := run(append(append([]string{}, base...), "-workers", "-3"), &out); err == nil {
		t.Error("negative -workers accepted")
	} else if !strings.Contains(err.Error(), "-workers") {
		t.Errorf("negative -workers error unhelpful: %v", err)
	}
}

// TestCLICheckInvarianceWithWorkers: the self-check must hold when the
// sweep itself is parallel — the serial reference is workers 1 AND
// parallelism 1.
func TestCLICheckInvarianceWithWorkers(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{
		"-name", "inv-workers", "-peers", "2", "-segments", "2", "-seed", "5",
		"-sweep", "drop:0,0.02,0.04,0.06", "-workers", "4",
		"-check-invariance",
	}, &out); err != nil {
		t.Fatalf("invariance self-check at -workers 4 failed: %v", err)
	}
	if _, err := scenario.ValidateJSON(out.Bytes()); err != nil {
		t.Fatalf("stdout is not exactly one valid document: %v", err)
	}
}

// TestCheckInvarianceComparesDigests: the self-check passes on the
// serial reference's own digest and fails on any other, so it cannot
// pass without comparing.
func TestCheckInvarianceComparesDigests(t *testing.T) {
	s := scenario.Scenario{
		Name: "digest-test", Peers: 2, Segments: 2, Seed: 5,
		Parallelism: 1, SweepAxis: scenario.AxisDrop, SweepPoints: []float64{0, 0.03},
	}
	h := sha256.New()
	if _, err := scenario.RunStreamWith(s, []scenario.PointSink{scenario.NewJSONSink(h)}, scenario.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	good := h.Sum(nil)
	serial, err := checkInvariance(s, good, 2)
	if err != nil {
		t.Fatalf("the serial reference's own digest was rejected: %v", err)
	}
	if serial <= 0 {
		t.Errorf("serial reference wall clock %v, want > 0", serial)
	}
	bad := append([]byte{}, good...)
	bad[len(bad)-1] ^= 1
	if _, err := checkInvariance(s, bad, 2); err == nil || !strings.Contains(err.Error(), "self-check FAILED") {
		t.Fatalf("a mismatched digest passed the self-check: %v", err)
	}
}

// TestCLIDuplicateSweepPoints: a sweep spec naming the same value
// twice measures two index-aligned, identical points — never a silent
// dedup, never an error.
func TestCLIDuplicateSweepPoints(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{
		"-name", "dup-test", "-peers", "2", "-segments", "2",
		"-sweep", "drop:0.03,0.03", "-workers", "2",
	}, &out); err != nil {
		t.Fatal(err)
	}
	res, err := scenario.ValidateJSON(out.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Value != 0.03 || res.Points[1].Value != 0.03 {
		t.Fatalf("duplicate sweep points mishandled: %+v", res.Points)
	}
	a, _ := json.Marshal(res.Points[0])
	b, _ := json.Marshal(res.Points[1])
	if !bytes.Equal(a, b) {
		t.Fatalf("identical sweep values measured differently:\n%s\n%s", a, b)
	}
}

// TestCLIBenchWallClock: the bench trajectory records the wall-clock
// block — workers, per-point times, peak concurrency, and (when
// -check-invariance armed the serial rerun) the speedup baseline.
func TestCLIBenchWallClock(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.json")
	var out bytes.Buffer
	if err := run([]string{
		"-name", "wall-test", "-peers", "2", "-segments", "2", "-seed", "3",
		"-sweep", "drop:0,0.02,0.04,0.06", "-workers", "4", "-check-invariance",
		"-json", filepath.Join(dir, "out.json"), "-bench", benchPath,
	}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Scenarios) != 1 {
		t.Fatalf("bench trajectory has %d entries", len(doc.Scenarios))
	}
	wc := doc.Scenarios[0].WallClock
	if wc == nil {
		t.Fatal("bench entry has no wall_clock block")
	}
	if wc.Workers != 4 || wc.TotalMS <= 0 || len(wc.PointMS) != 4 || wc.MaxInFlight < 1 {
		t.Fatalf("wall clock implausible: %+v", wc)
	}
	if wc.SerialMS <= 0 || wc.SpeedupVsSerial <= 0 {
		t.Fatalf("-check-invariance run recorded no serial baseline: %+v", wc)
	}
}

func TestParseSweep(t *testing.T) {
	axis, pts, err := parseSweep("corrupt:0,0.01,0.02")
	if err != nil || axis != scenario.AxisCorrupt || len(pts) != 3 {
		t.Fatalf("got %v %v %v", axis, pts, err)
	}
	axis, pts, err = parseSweep("0.1,0.2")
	if err != nil || axis != scenario.AxisDrop || len(pts) != 2 {
		t.Fatalf("default axis: %v %v %v", axis, pts, err)
	}
	if _, _, err := parseSweep("drop:a,b"); err == nil {
		t.Error("bad points accepted")
	}
	if axis, pts, err := parseSweep(""); axis != "" || pts != nil || err != nil {
		t.Error("empty spec must be a no-op")
	}
}

// TestCLIAttackWorkload drives the replay adversary end-to-end through
// the CLI, then feeds the emitted curve back through -validate — the
// same loop the CI adversarial-smoke leg runs.
func TestCLIAttackWorkload(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "attack.json")
	csvPath := filepath.Join(dir, "attack.csv")

	var out bytes.Buffer
	if err := run([]string{
		"-name", "cli-attack", "-peers", "2", "-segments", "2", "-seed", "13",
		"-workload", "attack", "-adversary", "replay,inject", "-attack-intensity", "0.4",
		"-json", jsonPath, "-csv", csvPath,
	}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.ValidateJSON(data)
	if err != nil {
		t.Fatalf("attack JSON fails the schema gate: %v", err)
	}
	if len(res.Points) != 1 || len(res.Points[0].Attacks) != 2 {
		t.Fatalf("attack accounting missing: %+v", res.Points)
	}
	for _, a := range res.Points[0].Attacks {
		if a.AcceptedReplays != 0 {
			t.Fatalf("SECURITY: CLI run accepted %d replays", a.AcceptedReplays)
		}
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Split(string(csv), "\n")[0], "accepted_replays") {
		t.Error("CSV header missing attack columns")
	}

	out.Reset()
	if err := run([]string{"-validate", jsonPath}, &out); err != nil {
		t.Fatalf("-validate rejected the attack curve: %v", err)
	}

	// The invariance self-check must hold for attack workloads too.
	if err := run([]string{
		"-name", "cli-attack-inv", "-peers", "2", "-segments", "2", "-seed", "13",
		"-workload", "attack", "-adversary", "babble", "-attack-intensity", "2000",
		"-egress-rate", "800", "-egress-queue", "64",
		"-sweep", "attack:0,2000", "-check-invariance",
	}, &out); err != nil {
		t.Fatalf("attack invariance self-check failed: %v", err)
	}
}

// TestCLIAttackErrors: adversary misuse fails loudly at validation.
func TestCLIAttackErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-workload", "attack", "-peers", "2"},                                                   // attack without adversaries
		{"-workload", "attack", "-adversary", "ghost", "-peers", "2"},                            // unknown kind
		{"-workload", "latency", "-adversary", "replay", "-peers", "2"},                          // adversary on benign workload
		{"-workload", "attack", "-adversary", "inject", "-attack-intensity", "2", "-peers", "2"}, // probability out of range
		{"-workload", "attack", "-adversary", "partition", "-segments", "1", "-peers", "2"},      // partition needs a gateway
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v succeeded", args)
		}
	}
}

func TestParseAdversaries(t *testing.T) {
	if got := parseAdversaries("", 0, -1, 0); got != nil {
		t.Errorf("empty spec returned %v", got)
	}
	got := parseAdversaries(" replay, babble ", 4000, 1, 0)
	if len(got) != 2 || got[0].Kind != scenario.AdversaryReplay || got[1].Kind != scenario.AdversaryBabble {
		t.Fatalf("parsed %+v", got)
	}
	for _, cfg := range got {
		if cfg.Intensity != 4000 || cfg.Segment != 1 {
			t.Errorf("shared knobs not applied: %+v", cfg)
		}
	}
}

// TestCLIStream byte-compares every output of a -stream run at
// -workers 8 against a serial run without -stream: -stream only
// selects the form of a bench entry, and workers only change wall
// clock — the in-process version of the 160-point leg of make
// parallel-invariance.
func TestCLIStream(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-name", "stream-test", "-peers", "2", "-segments", "2", "-seed", "9",
		"-corrupt", "0.005", "-sweep", "drop:0..0.05/12", "-workers", "8",
	}
	sArgs := append(append([]string{}, args...),
		"-stream",
		"-json", filepath.Join(dir, "s.json"), "-csv", filepath.Join(dir, "s.csv"), "-trace", filepath.Join(dir, "s.trace"))
	mArgs := append(append([]string{}, args...),
		"-workers", "1", // later flag wins: the reference runs serial
		"-json", filepath.Join(dir, "m.json"), "-csv", filepath.Join(dir, "m.csv"), "-trace", filepath.Join(dir, "m.trace"))

	var out bytes.Buffer
	if err := run(sArgs, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(mArgs, &out); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{"json", "csv", "trace"} {
		s, err := os.ReadFile(filepath.Join(dir, "s."+ext))
		if err != nil {
			t.Fatal(err)
		}
		m, err := os.ReadFile(filepath.Join(dir, "m."+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s, m) {
			t.Errorf("-stream at -workers 8 changed the %s output (%d vs %d bytes)", ext, len(s), len(m))
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "s.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.ValidateJSON(data)
	if err != nil {
		t.Fatalf("streamed JSON fails the schema gate: %v", err)
	}
	if len(res.Points) != 12 {
		t.Fatalf("range sweep produced %d points, want 12", len(res.Points))
	}
}

// TestCLIStreamToStdout: the default -json destination (stdout) works
// streamed too, and the document validates.
func TestCLIStreamToStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{
		"-name", "stream-stdout", "-peers", "2", "-segments", "1", "-seed", "5",
		"-sweep", "drop:0,0.02", "-stream",
	}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.ValidateJSON(out.Bytes()); err != nil {
		t.Fatalf("streamed stdout JSON fails the schema gate: %v", err)
	}
}

// TestCLIStreamBench: a streamed bench entry records the header, the
// aggregate stream block and a wall_clock with the memory evidence —
// and no per-point list in either (points null, point_ms omitted).
func TestCLIStreamBench(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.json")
	var out bytes.Buffer
	if err := run([]string{
		"-name", "stream-bench", "-peers", "2", "-segments", "2", "-seed", "3",
		"-sweep", "drop:0..0.04/16", "-workers", "4", "-stream",
		"-json", filepath.Join(dir, "out.json"), "-bench", benchPath,
	}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Scenarios) != 1 {
		t.Fatalf("bench trajectory has %d entries", len(doc.Scenarios))
	}
	e := doc.Scenarios[0]
	if e.Name != "stream-bench" || e.Points != nil {
		t.Fatalf("streamed entry must carry the header and a null point list: %+v", e.Result)
	}
	if e.Stream == nil || e.Stream.Points != 16 || e.Stream.Handshakes == 0 || e.Stream.SimTimeTotalUS <= 0 {
		t.Fatalf("stream block implausible: %+v", e.Stream)
	}
	wc := e.WallClock
	if wc == nil || wc.Workers != 4 || wc.PointMS != nil {
		t.Fatalf("streamed wall_clock must omit point_ms: %+v", wc)
	}
	if wc.MaxReorderDepth < 1 || wc.MaxReorderDepth > 4+scenario.ReorderSlack {
		t.Fatalf("reorder depth %d outside (0, workers+slack]", wc.MaxReorderDepth)
	}
	if wc.HeapHighWaterBytes == 0 {
		t.Fatal("no heap high-water evidence recorded")
	}
}

// TestCLIStreamCheckInvariance: the self-check compares digests, so it
// runs on a streamed range sweep at -workers 8, and the -stream bench
// entry records the serial reference beside its aggregate block.
func TestCLIStreamCheckInvariance(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.json")
	args := []string{
		"-name", "stream-inv", "-peers", "2", "-segments", "2", "-seed", "4",
		"-corrupt", "0.005", "-sweep", "drop:0..0.05/12", "-workers", "8",
		"-stream", "-check-invariance",
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("-stream -check-invariance failed: %v", err)
	}
	if res, err := scenario.ValidateJSON(out.Bytes()); err != nil || len(res.Points) != 12 {
		t.Fatalf("stdout is not one 12-point document: %v", err)
	}

	out.Reset()
	if err := run(append(args, "-json", filepath.Join(dir, "out.json"), "-bench", benchPath), &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Scenarios) != 1 {
		t.Fatalf("bench trajectory has %d entries", len(doc.Scenarios))
	}
	e := doc.Scenarios[0]
	if e.Points != nil || e.Stream == nil || e.Stream.Points != 12 {
		t.Fatalf("want an aggregate entry with a null point list: %+v %+v", e.Result, e.Stream)
	}
	if wc := e.WallClock; wc == nil || wc.SerialMS <= 0 || wc.SpeedupVsSerial <= 0 {
		t.Fatalf("-stream -check-invariance entry recorded no serial baseline: %+v", wc)
	}
}

// TestParseSweepRange pins the lo..hi/n expansion.
func TestParseSweepRange(t *testing.T) {
	axis, pts, err := parseSweep("drop:0..0.06/4")
	if err != nil || axis != scenario.AxisDrop {
		t.Fatalf("range spec rejected: %v %v", axis, err)
	}
	want := []float64{0, 0.02, 0.04, 0.06}
	if len(pts) != len(want) {
		t.Fatalf("got %v, want %v", pts, want)
	}
	for i := range want {
		if diff := pts[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("point %d: got %v, want %v", i, pts[i], want[i])
		}
	}
	// Ranges and scalars mix; the endpoints land exactly.
	_, pts, err = parseSweep("corrupt:0.001,0..1/2,0.5")
	if err != nil || len(pts) != 4 || pts[1] != 0 || pts[2] != 1 {
		t.Fatalf("mixed spec: %v %v", pts, err)
	}
	for _, bad := range []string{"drop:0..0.06", "drop:0..0.06/1", "drop:0..0.06/x", "drop:..1/4", "drop:0../4"} {
		if _, _, err := parseSweep(bad); err == nil {
			t.Errorf("bad range %q accepted", bad)
		}
	}
}
