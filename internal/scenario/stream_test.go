package scenario

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// runAllSinks streams s at the given worker count into fresh JSON,
// CSV, trace and collecting sinks, returning the three byte streams,
// the collected Result and the run's Timing.
func runAllSinks(t *testing.T, s Scenario, workers int) (jsonB, csvB, traceB []byte, res *Result, timing *Timing) {
	t.Helper()
	var jb, cb, tb bytes.Buffer
	col := &collectSink{}
	timing, err := RunStreamWith(s, []PointSink{NewJSONSink(&jb), NewCSVSink(&cb), NewTraceSink(&tb), col}, Options{Workers: workers})
	if err != nil {
		t.Fatalf("RunStreamWith(workers=%d): %v", workers, err)
	}
	return jb.Bytes(), cb.Bytes(), tb.Bytes(), col.res, timing
}

// materialize runs s on the materialized path (serial) and renders the
// same three byte streams through the original writers.
func materialize(t *testing.T, s Scenario) (jsonB, csvB, traceB []byte, res *Result) {
	t.Helper()
	var tb bytes.Buffer
	res, _, err := RunWith(s, Options{Workers: 1}, NewTraceSink(&tb))
	if err != nil {
		t.Fatal(err)
	}
	var jb, cb bytes.Buffer
	if err := WriteJSON(&jb, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&cb, res); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes(), tb.Bytes(), res
}

// TestStreamedMatchesMaterializedProperty is the tentpole contract as
// a property test: for randomized scenarios and worker counts 1, 2
// and 8, the streamed JSON, CSV and trace byte streams must equal the
// materialized writers' output exactly, the collected Result must
// DeepEqual the materialized one, and the reorder window must stay
// within its bound.
func TestStreamedMatchesMaterializedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	workloads := []Workload{WorkloadLatency, WorkloadBringup, WorkloadChurn}
	for i := 0; i < 5; i++ {
		s := Scenario{
			Name:           fmt.Sprintf("stream-prop-%d", i),
			Seed:           rng.Uint64(),
			Peers:          1 + rng.Intn(4),
			Segments:       1 + rng.Intn(3),
			GatewayLatency: 50 * time.Microsecond,
			Profile:        Profile{Drop: 0.05 * rng.Float64(), Corrupt: 0.02 * rng.Float64()},
			Workload:       workloads[rng.Intn(len(workloads))],
			Attempts:       10,
			ChurnRounds:    1 + rng.Intn(2),
		}
		if n := rng.Intn(5); n > 0 {
			s.SweepAxis = AxisDrop
			for j := 0; j < n; j++ {
				s.SweepPoints = append(s.SweepPoints, 0.06*rng.Float64())
			}
		}
		t.Run(s.Name, func(t *testing.T) {
			wantJSON, wantCSV, wantTrace, wantRes := materialize(t, s)
			for _, workers := range []int{1, 2, 8} {
				gotJSON, gotCSV, gotTrace, gotRes, timing := runAllSinks(t, s, workers)
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("workers=%d: streamed JSON diverged from materialized (%d vs %d bytes)\nstreamed:\n%s\nmaterialized:\n%s",
						workers, len(gotJSON), len(wantJSON), gotJSON, wantJSON)
				}
				if !bytes.Equal(gotCSV, wantCSV) {
					t.Fatalf("workers=%d: streamed CSV diverged from materialized\nstreamed:\n%s\nmaterialized:\n%s",
						workers, gotCSV, wantCSV)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Fatalf("workers=%d: streamed trace diverged from materialized (%d vs %d bytes)",
						workers, len(gotTrace), len(wantTrace))
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("workers=%d: collected Result diverged:\n%+v\nvs\n%+v", workers, gotRes, wantRes)
				}
				if timing.MaxReorderDepth > timing.Workers+ReorderSlack {
					t.Fatalf("workers=%d: reorder depth %d exceeds bound %d",
						workers, timing.MaxReorderDepth, timing.Workers+ReorderSlack)
				}
				if _, err := ValidateJSON(gotJSON); err != nil {
					t.Fatalf("workers=%d: streamed JSON fails the schema gate: %v", workers, err)
				}
			}
		})
	}
}

// TestStreamErroredPointMidStream: a point that fails mid-sweep must
// land index-aligned in the streamed JSON and CSV exactly as it does
// in the materialized Result — the schema-v3 in-place failure contract
// survives streaming.
func TestStreamErroredPointMidStream(t *testing.T) {
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

	wantJSON, wantCSV, wantTrace, _ := materialize(t, s)
	gotJSON, gotCSV, gotTrace, res, _ := runAllSinks(t, s, 2)
	if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotCSV, wantCSV) || !bytes.Equal(gotTrace, wantTrace) {
		t.Fatal("streamed output with an errored point diverged from materialized")
	}
	if len(res.Points) != 3 || res.Points[1].Error == "" || res.Points[1].Value != 0.05 {
		t.Fatalf("errored point not index-aligned: %+v", res.Points)
	}
	if !strings.Contains(string(gotTrace), "point-error drop=0.0500: injected fabric failure") {
		t.Errorf("streamed trace missing the point-error line:\n%s", gotTrace)
	}
	// The CSV row for the failed point carries the error in the error
	// column, on its own line, in sweep order.
	lines := strings.Split(strings.TrimRight(string(gotCSV), "\n"), "\n")
	if len(lines) != 4 { // header + 3 points
		t.Fatalf("streamed CSV has %d lines, want 4:\n%s", len(lines), gotCSV)
	}
	if !strings.Contains(lines[2], "injected fabric failure") {
		t.Errorf("failed point's CSV row (line 3) missing the error: %q", lines[2])
	}
	if _, err := ValidateJSON(gotJSON); err != nil {
		t.Fatalf("streamed JSON with an errored point fails the schema gate: %v", err)
	}
}

// failAfter fails every write past a byte budget — the failing-writer
// fixture for the error-propagation contract.
type failAfter struct {
	n    int
	seen int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.seen += len(p)
	if f.seen > f.n {
		return 0, fmt.Errorf("injected write failure after %d bytes", f.n)
	}
	return len(p), nil
}

// TestStreamSinkErrorPropagates: a sink write failure — at Begin or
// mid-stream — must abort the run with the writer's error instead of
// being swallowed, and must not deadlock the admission-gated workers.
func TestStreamSinkErrorPropagates(t *testing.T) {
	s := parallelSweep()

	t.Run("begin", func(t *testing.T) {
		_, err := RunStreamWith(s, []PointSink{NewJSONSink(&failAfter{n: 10})}, Options{Workers: 4})
		if err == nil || !strings.Contains(err.Error(), "injected write failure") {
			t.Fatalf("Begin failure not propagated: %v", err)
		}
	})

	t.Run("mid-stream-json", func(t *testing.T) {
		_, err := RunStreamWith(s, []PointSink{NewJSONSink(&failAfter{n: 4000})}, Options{Workers: 4})
		if err == nil || !strings.Contains(err.Error(), "injected write failure") {
			t.Fatalf("mid-stream JSON failure not propagated: %v", err)
		}
	})

	t.Run("mid-stream-trace", func(t *testing.T) {
		// The old materialized path discarded per-point tracer errors
		// after the buffer flush; the streaming path must surface a
		// trace write failure like any sink error.
		_, err := RunStreamWith(s, []PointSink{NewTraceSink(&failAfter{n: 600}), &collectSink{}}, Options{Workers: 4})
		if err == nil || !strings.Contains(err.Error(), "injected write failure") {
			t.Fatalf("trace write failure not propagated: %v", err)
		}
	})

	t.Run("no-sinks", func(t *testing.T) {
		if _, err := RunStreamWith(s, nil, Options{Workers: 1}); err == nil {
			t.Fatal("a sink-less run must be rejected")
		}
	})
}

// TestStreamReorderWindowBound: with point 0 made pathologically slow,
// every other worker finishes first — the admission gate must cap how
// many completed points accumulate at workers + ReorderSlack, and the
// output must still be byte-identical to the serial materialized run.
func TestStreamReorderWindowBound(t *testing.T) {
	s := smallScenario(WorkloadLatency)
	s.Name = "reorder-bound"
	s.SweepAxis = AxisDrop
	s.SweepPoints = make([]float64, 64)
	for i := range s.SweepPoints {
		s.SweepPoints[i] = 0.001 * float64(i)
	}

	slow := make(chan struct{})
	orig := runPointFn
	defer func() { runPointFn = orig }()
	runPointFn = func(sc Scenario, v float64, axis Axis, tr *tracer) (Point, error) {
		if v == 0 {
			<-slow // park point 0 until everything admissible has finished
		}
		return runPoint(sc, v, axis, tr)
	}
	const workers = 8
	go func() {
		// Release point 0 once the window must be saturated: with it
		// parked, the other workers can complete at most
		// workers+ReorderSlack-1 admitted points and then block.
		time.Sleep(300 * time.Millisecond)
		close(slow)
	}()

	var jb bytes.Buffer
	col := &collectSink{}
	timing, err := RunStreamWith(s, []PointSink{NewJSONSink(&jb), col}, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if timing.MaxReorderDepth > workers+ReorderSlack {
		t.Fatalf("reorder depth %d exceeds bound %d", timing.MaxReorderDepth, workers+ReorderSlack)
	}
	if timing.HeapHighWater == 0 {
		t.Error("no heap high-water sample recorded on a 64-point run")
	}

	runPointFn = orig
	wantJSON, _, _, wantRes := materialize(t, s)
	if !bytes.Equal(jb.Bytes(), wantJSON) {
		t.Fatal("slow-point streamed JSON diverged from materialized")
	}
	if !reflect.DeepEqual(col.res, wantRes) {
		t.Fatal("slow-point collected Result diverged from materialized")
	}
}
