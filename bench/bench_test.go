package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets --workload all's child processes run as the benchmark:
// runAll re-executes os.Executable, which under `go test` is the test
// binary.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one sample = %v", got)
	}
}

// TestTimingsUseFastestQuarter pins the end-to-end timings to the
// fastest quarter of a run's chunks, whatever order the chunks ran in.
func TestTimingsUseFastestQuarter(t *testing.T) {
	var ch chunker
	for _, i := range []int{3, 8, 1, 6, 4, 9, 2, 7, 5} {
		// Chunk i does 100 ops in i seconds; its samples are i and 10i µs.
		ch.sample(time.Duration(i) * time.Microsecond)
		ch.sample(time.Duration(10*i) * time.Microsecond)
		ch.cut(100, time.Duration(i)*time.Second)
	}
	// The fastest quarter, rounded up, is chunks 1, 2 and 3: 300 ops in
	// 6 s, samples 1, 2, 3, 10, 20, 30.
	perSecond, p50, tail := timings(ch.chunks, 99)
	if perSecond != 50 || p50 != 3 || tail != 30 {
		t.Errorf("timings = %v ops/s, p50 %v, tail %v; want 50, 3, 30", perSecond, p50, tail)
	}
	if perSecond, _, _ := timings(ch.chunks[:1], 99); perSecond != 100.0/3 {
		t.Errorf("one chunk: %v ops/s, want its own rate", perSecond)
	}
	if perSecond, p50, tail := timings(nil, 99); perSecond != 0 || p50 != 0 || tail != 0 {
		t.Error("an empty phase should read 0")
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}

// TestCommittedGridMatchesBenchScenarios keeps the grid's pinned
// aggregates in step with the committed stream block.
func TestCommittedGridMatchesBenchScenarios(t *testing.T) {
	data, err := os.ReadFile("../BENCH_scenarios.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scenarios []struct {
			Name   string `json:"name"`
			Seed   uint64 `json:"seed"`
			Stream *struct {
				Points, Failed, Errors, Handshakes, Retries, Retransmits int
				SimTimeTotalUS                                           float64 `json:"sim_time_total_us"`
			} `json:"stream"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, s := range doc.Scenarios {
		if s.Name != "impairment-grid-2k" {
			continue
		}
		b := s.Stream
		want := gridTotals{b.Points, b.Failed, b.Errors, b.Handshakes, b.Retries, b.Retransmits, b.SimTimeTotalUS}
		if e := committedGrids[0]; e.seed != s.Seed || e.totals != want {
			t.Errorf("committed grid %+v, BENCH_scenarios.json seed %d %+v", e, s.Seed, want)
		}
		return
	}
	t.Fatal("BENCH_scenarios.json has no impairment-grid-2k entry")
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "steady-traffic", "--trace", "2"},
		{"--workload", "steady-traffic", "--seconds", "0"},
		{"--no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and nothing", args, code, stdout.String())
		}
	}
}

// smoke runs the benchmark at about 1% of its size and returns the
// parsed result.
func smoke(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"--seed", "3", "--seconds", "0.05"}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("run(%v): correct %v attempted %d failed %d", args, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// checkMetrics asserts the result holds exactly specs, with their units.
func checkMetrics(t *testing.T, res result, specs []metricSpec, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", s.Name)
		case m.Unit != s.Unit:
			t.Errorf("metric %s unit %q, want %q", s.Name, m.Unit, s.Unit)
		case positive && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", s.Name, m.Value)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			checkMetrics(t, smoke(t, "--workload", w.name), endToEnd, true)
		})
	}
}

func TestWorkloadsTracedSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir() + "/trace.json"
			res := smoke(t, "--workload", w.name, "--trace", "1", "--trace-out", out)
			checkMetrics(t, res, perLayer, false)
			if c := res.Metrics["trace.coverage"].Value; c < 0.9 || c > 1.01 {
				t.Errorf("trace.coverage = %v, want in [0.9, 1]", c)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Error("trace holds no spans")
			}
		})
	}
}

// TestWrongExpectationFailsRun pins a deliberately wrong grid aggregate
// and checks that the run fails without printing a result.
func TestWrongExpectationFailsRun(t *testing.T) {
	saved := committedGrids
	t.Cleanup(func() { committedGrids = saved })
	wrong := gridTotals{Points: 20, Handshakes: 41}
	committedGrids = append(append([]gridExpectation(nil), saved...), gridExpectation{3, 20, wrong})

	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "impairment-grid", "--seed", "3", "--seconds", "0.05"}, &stdout, &stderr)
	if code != 1 || stdout.Len() != 0 {
		t.Errorf("run = %d with stdout %q, want 1 and nothing", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), errCheck.Error()) {
		t.Errorf("stderr does not report the failed check:\n%s", stderr.String())
	}
}

func TestAllRunsEveryWorkloadInItsOwnProcess(t *testing.T) {
	t.Setenv("BENCH_AS_MAIN", "1")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "all", "--seed", "3", "--seconds", "0.05"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(workloads) {
		t.Fatalf("%d result lines, want %d:\n%s", len(lines), len(workloads), stdout.String())
	}
	for i, line := range lines {
		var rec struct {
			Workload string `json:"workload"`
			Result   result `json:"result"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Workload != workloads[i].name {
			t.Errorf("line %d is %q, want %q", i, rec.Workload, workloads[i].name)
		}
		checkMetrics(t, rec.Result, endToEnd, true)
	}
}
