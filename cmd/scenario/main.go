// Command scenario runs declarative degraded-bus measurement
// scenarios over the simulated multi-segment CAN fabric and writes
// structured measurements: handshake-latency-vs-loss curves,
// per-Table-II-step retransmission and overhead accounting, fleet
// bring-up and churn costs. Every run is seeded and content-keyed, so
// a published curve is exactly reproducible from its command line.
//
// Examples:
//
//	# Latency-vs-loss curve, 8 peers across 3 segments, 0–10% loss,
//	# sweep points fanned out one per core (byte-identical to -workers 1):
//	scenario -peers 8 -sweep drop:0,0.02,0.04,0.06,0.08,0.10 \
//	         -workers 0 -json curve.json -csv curve.csv
//
//	# Fleet bring-up under churn behind a congested gateway:
//	scenario -workload churn -peers 8 -egress-rate 800 -json churn.json
//
//	# Victim-handshake latency vs babble rate, fair-queuing gateway
//	# isolating the victims:
//	scenario -workload attack -adversary babble -egress-rate 800 \
//	         -sweep attack:0,1000,4000,16000 -json babble.json
//
//	# Replay storm: record every handshake, re-inject it verbatim,
//	# assert zero accepted replays end-to-end:
//	scenario -workload attack -adversary replay -json replay.json
//
//	# Heavy traffic: a 2048-point impairment grid streamed straight to
//	# disk — completed points flush in order and are released, so peak
//	# memory is O(workers + reorder window), not O(points). Output is
//	# byte-identical to the materialized path:
//	scenario -peers 2 -sweep drop:0..0.06/2048 -workers 0 -stream \
//	         -json grid.json -csv grid.csv
//
//	# Schema-drift gate (CI): re-validate an emitted file:
//	scenario -validate curve.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/canbus"
	"repro/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: parse flags from args, execute, write
// human-facing output to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	var (
		name         = fs.String("name", "", "scenario name (defaults to workload-axis)")
		workload     = fs.String("workload", "latency", "workload: latency | bringup | churn | attack | day-in-the-life")
		peers        = fs.Int("peers", 8, "fleet size")
		segments     = fs.Int("segments", 3, "CAN segments in the gateway chain")
		seed         = fs.Uint64("seed", 42, "impairment and randomness seed")
		attempts     = fs.Int("attempts", 10, "per-handshake retry budget")
		parallelism  = fs.Int("parallelism", 1, "EstablishAll workers (bringup/churn)")
		churnRounds  = fs.Int("churn-rounds", 3, "drop/re-establish rounds (churn)")
		gwLatency    = fs.Duration("gateway-latency", 50*time.Microsecond, "store-and-forward latency per hop")
		egressRate   = fs.Float64("egress-rate", 0, "gateway egress rate limit in frames/s (0 = uncongested)")
		egressQueue  = fs.Int("egress-queue", 0, "gateway egress queue bound (0 = unbounded; needs -egress-rate)")
		egressShared = fs.Bool("egress-shared", false, "egress rate caps each port's aggregate throughput, divided fairly across flows (default: per conversation flow; needs -egress-rate)")
		workers      = fs.Int("workers", 1, "sweep points simulated concurrently, each on an isolated fabric (0 = one per core); JSON, CSV and trace output are byte-identical for any value")
		drop         = fs.Float64("drop", 0, "base frame drop rate [0,1]")
		corrupt      = fs.Float64("corrupt", 0, "base frame corruption rate [0,1]")
		duplicate    = fs.Float64("duplicate", 0, "base frame duplication rate [0,1]")
		delayRate    = fs.Float64("delay-rate", 0, "base frame delay rate [0,1]")
		delay        = fs.Duration("delay", 0, "extra latency per delayed frame (with -delay-rate)")
		sweep        = fs.String("sweep", "", "sweep spec: [axis:]p1,p2,... (axis: drop | corrupt | duplicate | attack); a token lo..hi/n expands to n evenly spaced points")
		adversaries  = fs.String("adversary", "", "comma list of adversaries for the attack workloads: replay | inject | babble | partition")
		attackInt    = fs.Float64("attack-intensity", 0, "adversary intensity (babble: frames/s; inject: forge probability [0,1]; partition: heal window in seconds; replay: session cap, 0 = all); an attack sweep overrides it per point")
		attackSeg    = fs.Int("attack-segment", -1, "bus segment the adversaries operate on (-1 = kind default: last segment, babble segment 0)")
		attackStart  = fs.Duration("attack-start", 0, "attack onset delay past the workload start (simulated; 0 = kind default)")
		jsonPath     = fs.String("json", "", "write the result JSON here ('-' or empty = stdout)")
		csvPath      = fs.String("csv", "", "also write the flattened curve CSV here")
		tracePath    = fs.String("trace", "", "also write the full fault/recovery trace here")
		benchPath    = fs.String("bench", "", "append the result to this benchmark trajectory file")
		validate     = fs.String("validate", "", "validate an emitted JSON file against the schema and exit")
		checkInv     = fs.Bool("check-invariance", false, "re-run the scenario serially (parallelism 1) and fail unless the results are byte-identical — the schedule-invariance self-check")
		stream       = fs.Bool("stream", false, "stream each completed point to the JSON/CSV/trace outputs in order instead of materializing the whole result — byte-identical output, O(workers) memory; for the sweeps too big to hold")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			return err
		}
		r, err := scenario.ValidateJSON(data)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: schema v%d ok — scenario %q, %d point(s)\n", *validate, r.SchemaVersion, r.Name, len(r.Points))
		return nil
	}

	if *workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (0 = one worker per core), got %d", *workers)
	}
	axis, points, err := parseSweep(*sweep)
	if err != nil {
		return err
	}
	s := scenario.Scenario{
		Name:           *name,
		Seed:           *seed,
		Peers:          *peers,
		Segments:       *segments,
		GatewayLatency: *gwLatency,
		Egress:         canbus.EgressPolicy{Rate: *egressRate, Queue: *egressQueue, Shared: *egressShared},
		Profile:        scenario.Profile{Drop: *drop, Corrupt: *corrupt, Duplicate: *duplicate, DelayRate: *delayRate, Delay: *delay},
		Workload:       scenario.Workload(*workload),
		SweepAxis:      axis,
		SweepPoints:    points,
		Attempts:       *attempts,
		Parallelism:    *parallelism,
		ChurnRounds:    *churnRounds,
		Adversaries:    parseAdversaries(*adversaries, *attackInt, *attackSeg, *attackStart),
	}
	if s.Name == "" {
		s.Name = *workload
		if axis != "" {
			s.Name += "-vs-" + string(axis)
		}
	}
	if err := s.Validate(); err != nil {
		return err
	}

	opts := scenario.Options{Workers: *workers}
	if *stream {
		if *checkInv {
			return fmt.Errorf("-stream and -check-invariance are mutually exclusive: the self-check compares materialized results (byte-compare a streamed run against a materialized one instead — that is what make stream-smoke gates)")
		}
		return runStreamed(s, opts, *jsonPath, *csvPath, *tracePath, *benchPath, stdout)
	}

	var res *scenario.Result
	var timing *scenario.Timing
	if *tracePath != "" {
		err = writeFile(*tracePath, func(f *os.File) error {
			var rerr error
			res, timing, rerr = scenario.RunWith(s, opts, scenario.NewTraceSink(f))
			return rerr
		})
	} else {
		res, timing, err = scenario.RunWith(s, opts)
	}
	if err != nil {
		return err
	}
	printTiming(timing, len(res.Points))

	var serialWall time.Duration
	if *checkInv {
		if serialWall, err = checkInvariance(s, res, timing, stdout); err != nil {
			return err
		}
	}

	if *jsonPath == "" || *jsonPath == "-" {
		if err := scenario.WriteJSON(stdout, res); err != nil {
			return err
		}
	} else if err := writeFile(*jsonPath, func(f *os.File) error { return scenario.WriteJSON(f, res) }); err != nil {
		return err
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, func(f *os.File) error { return scenario.WriteCSV(f, res) }); err != nil {
			return err
		}
	}
	if *benchPath != "" {
		entry := &benchEntry{Result: res, WallClock: buildWallClock(timing, serialWall, true)}
		if err := appendBench(*benchPath, entry); err != nil {
			return err
		}
	}
	warnFailed(failedPoints(res), len(res.Points))
	return nil
}

// runStreamed is the -stream execution path: every requested output
// gets an incremental sink, completed points flush to them in index
// order as the sweep runs, and nothing materializes — the result never
// exists in memory as a whole. Output bytes are identical to the
// materialized path's.
func runStreamed(s scenario.Scenario, opts scenario.Options, jsonPath, csvPath, tracePath, benchPath string, stdout io.Writer) error {
	sum := &streamSummary{}
	sinks := []scenario.PointSink{sum}

	// Output files stay open for the whole run (sinks write them point
	// by point); close errors on the success path are real errors —
	// the last buffered bytes live there.
	var files []*os.File
	closeAll := func() error {
		var first error
		for _, f := range files {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		files = nil
		return first
	}
	defer closeAll()
	open := func(path string) (*os.File, error) {
		f, err := os.Create(path)
		if err == nil {
			files = append(files, f)
		}
		return f, err
	}

	if jsonPath == "" || jsonPath == "-" {
		sinks = append(sinks, scenario.NewJSONSink(stdout))
	} else {
		f, err := open(jsonPath)
		if err != nil {
			return err
		}
		sinks = append(sinks, scenario.NewJSONSink(f))
	}
	if csvPath != "" {
		f, err := open(csvPath)
		if err != nil {
			return err
		}
		sinks = append(sinks, scenario.NewCSVSink(f))
	}
	if tracePath != "" {
		f, err := open(tracePath)
		if err != nil {
			return err
		}
		sinks = append(sinks, scenario.NewTraceSink(f))
	}

	timing, err := scenario.RunStreamWith(s, sinks, opts)
	if err != nil {
		return err
	}
	if err := closeAll(); err != nil {
		return err
	}
	printTiming(timing, sum.points)

	if benchPath != "" {
		// A streamed bench entry records the header and the aggregate
		// stream block instead of the full point list ("points": null):
		// the heavy-traffic sweeps exist precisely because their point
		// lists are too big to commit.
		entry := &benchEntry{
			Result:    sum.headerResult(),
			WallClock: buildWallClock(timing, 0, false),
			Stream:    sum.block(),
		}
		if err := appendBench(benchPath, entry); err != nil {
			return err
		}
	}
	warnFailed(sum.failed, sum.points)
	return nil
}

// printTiming writes the run's wall-clock line to stderr: workers and
// wall time, plus the streaming engine's memory evidence (peak reorder
// depth, sampled heap high water) — populated on every run now that
// the materialized path is a collecting sink over the same engine.
func printTiming(timing *scenario.Timing, points int) {
	fmt.Fprintf(os.Stderr, "timing: workers=%d wall=%s max_in_flight=%d points=%d reorder_depth=%d heap_high_water=%.1fMB\n",
		timing.Workers, timing.WallClock.Round(time.Millisecond), timing.MaxInFlight, points,
		timing.MaxReorderDepth, float64(timing.HeapHighWater)/(1<<20))
}

// warnFailed reports surviving point-level failures on stderr without
// poisoning the structured output on stdout.
func warnFailed(failed, points int) {
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "scenario: %d of %d sweep points failed; each failure is recorded on its point in the result\n",
			failed, points)
	}
}

// failedPoints counts points that recorded a point-level failure.
func failedPoints(res *scenario.Result) int {
	n := 0
	for _, p := range res.Points {
		if p.Error != "" {
			n++
		}
	}
	return n
}

// checkInvariance re-runs the scenario fully serially — one sweep
// worker, EstablishAll parallelism 1 — and compares the two results
// byte-for-byte: with isolated per-point fabrics, content-keyed
// faults, private per-conversation randomness and fair-queuing
// gateway egress, a measured curve must be a function of the scenario
// definition alone, never of how the workers were scheduled. (On an
// already-serial run this degrades to a same-seed replay determinism
// check, which is still a meaningful gate.) It returns the serial
// reference's wall-clock time, which the bench trajectory records as
// the parallel run's speedup baseline.
func checkInvariance(s scenario.Scenario, res *scenario.Result, timing *scenario.Timing, stdout io.Writer) (time.Duration, error) {
	serial := s
	serial.Parallelism = 1
	ref, serialTiming, err := scenario.RunWith(serial, scenario.Options{Workers: 1})
	if err != nil {
		return 0, fmt.Errorf("invariance self-check rerun: %w", err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	want, err := json.Marshal(ref)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, want) {
		return 0, fmt.Errorf("schedule-invariance self-check FAILED: workers %d / parallelism %d diverged from the serial reference (%d vs %d bytes)",
			timing.Workers, s.Parallelism, len(got), len(want))
	}
	fmt.Fprintf(stdout, "invariance: workers %d / parallelism %d == serial reference (%d identical bytes)\n",
		timing.Workers, s.Parallelism, len(got))
	return serialTiming.WallClock, nil
}

// parseAdversaries decodes the -adversary comma list into configs,
// all sharing the flag-level intensity/segment/start knobs (scenarios
// needing per-adversary knobs are expressed in Go against the
// scenario package; the CLI covers the common one-attack case and the
// composite with uniform intensity). Unknown kinds pass through for
// Validate to reject with its richer error.
func parseAdversaries(spec string, intensity float64, segment int, start time.Duration) []scenario.AdversaryConfig {
	if spec == "" {
		return nil
	}
	var out []scenario.AdversaryConfig
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		out = append(out, scenario.AdversaryConfig{
			Kind:      scenario.AdversaryKind(tok),
			Segment:   segment,
			Intensity: intensity,
			Start:     start,
		})
	}
	return out
}

// parseSweep decodes "[axis:]p1,p2,...": an optional axis prefix
// (default drop) and a comma list of rates. A token "lo..hi/n"
// expands to n evenly spaced points from lo to hi inclusive — the
// heavy-traffic grid syntax ("drop:0..0.06/2048"); ranges and scalars
// mix freely in one list.
func parseSweep(spec string) (scenario.Axis, []float64, error) {
	if spec == "" {
		return "", nil, nil
	}
	axis := scenario.AxisDrop
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		axis = scenario.Axis(spec[:i])
		spec = spec[i+1:]
	}
	var points []float64
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if strings.Contains(tok, "..") {
			pts, err := parseRange(tok)
			if err != nil {
				return "", nil, err
			}
			points = append(points, pts...)
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return "", nil, fmt.Errorf("bad sweep point %q: %w", tok, err)
		}
		points = append(points, v)
	}
	return axis, points, nil
}

// parseRange expands one "lo..hi/n" sweep token.
func parseRange(tok string) ([]float64, error) {
	dots := strings.Index(tok, "..")
	slash := strings.LastIndexByte(tok, '/')
	if slash < dots {
		return nil, fmt.Errorf("bad sweep range %q: want lo..hi/n", tok)
	}
	lo, err := strconv.ParseFloat(tok[:dots], 64)
	if err != nil {
		return nil, fmt.Errorf("bad sweep range %q: %w", tok, err)
	}
	hi, err := strconv.ParseFloat(tok[dots+2:slash], 64)
	if err != nil {
		return nil, fmt.Errorf("bad sweep range %q: %w", tok, err)
	}
	n, err := strconv.Atoi(tok[slash+1:])
	if err != nil {
		return nil, fmt.Errorf("bad sweep range %q: %w", tok, err)
	}
	if n < 2 {
		return nil, fmt.Errorf("bad sweep range %q: need at least 2 points", tok)
	}
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return pts, nil
}

func writeFile(path string, emit func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchFile is the trajectory document committed as
// BENCH_scenarios.json: a self-describing header plus the accumulated
// scenario results.
type benchFile struct {
	Paper       string        `json:"paper"`
	Title       string        `json:"title"`
	Date        string        `json:"date"`
	Host        string        `json:"host"`
	Methodology string        `json:"methodology"`
	Scenarios   []*benchEntry `json:"scenarios"`
}

// benchEntry is one trajectory entry: the measurement (simulated time,
// host-independent) plus the wall clock the engine spent producing it
// (real time, the one host-dependent number — the multi-core speedup
// evidence). Streamed heavy-traffic entries carry a stream aggregate
// block and a null points list instead of the full curve — the point
// lists those sweeps produce are exactly what is too big to commit.
type benchEntry struct {
	*scenario.Result
	WallClock *wallClock   `json:"wall_clock,omitempty"`
	Stream    *streamBlock `json:"stream,omitempty"`
}

// wallClock records the engine's real execution cost for one entry.
type wallClock struct {
	// Workers is the sweep-point worker count of the run.
	Workers int `json:"workers"`
	// TotalMS is the wall-clock time of the whole sweep.
	TotalMS float64 `json:"total_ms"`
	// PointMS is each point's wall-clock time, index-aligned with
	// points; their sum exceeding total_ms means points overlapped.
	// Omitted on streamed entries (it is O(points) by definition).
	PointMS []float64 `json:"point_ms,omitempty"`
	// MaxInFlight is the peak number of points simulating
	// concurrently.
	MaxInFlight int `json:"max_in_flight"`
	// MaxReorderDepth is the peak number of completed points held by
	// the ordered emitter — the evidence that memory stayed
	// O(workers + slack) rather than O(points).
	MaxReorderDepth int `json:"max_reorder_depth"`
	// HeapHighWaterBytes is the highest sampled heap allocation during
	// the run (host- and GC-dependent, like everything in this block).
	HeapHighWaterBytes uint64 `json:"heap_high_water_bytes"`
	// SerialMS and SpeedupVsSerial are recorded when the run was
	// -check-invariance armed: the byte-identical serial reference's
	// wall clock, and total speedup over it.
	SerialMS        float64 `json:"serial_ms,omitempty"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// streamBlock is a streamed run's aggregate measurement: simulated-
// time totals over the whole sweep — host-independent, reproducible
// from the scenario definition like any curve, just folded instead of
// listed.
type streamBlock struct {
	Points         int     `json:"points"`
	Failed         int     `json:"failed"`
	Errors         int     `json:"errors"`
	Handshakes     int     `json:"handshakes"`
	Retries        int     `json:"retries"`
	Retransmits    int     `json:"retransmits"`
	SimTimeTotalUS float64 `json:"sim_time_total_us"`
	SimTimeMaxUS   float64 `json:"sim_time_max_us"`
}

// streamSummary is the CLI's always-on streaming sink: it folds every
// point into the aggregates the bench trajectory and the stderr
// diagnostics need, holding O(1) memory.
type streamSummary struct {
	header scenario.Header
	points int
	failed int
	block_ streamBlock
}

// Begin records the scenario header.
func (s *streamSummary) Begin(h scenario.Header) error {
	s.header = h
	return nil
}

// Point folds one point into the aggregates.
func (s *streamSummary) Point(i int, pt scenario.Point, _ []byte) error {
	s.points++
	if pt.Error != "" {
		s.failed++
	}
	s.block_.Errors += pt.Errors
	s.block_.Handshakes += pt.Handshakes
	s.block_.Retries += pt.Retries
	s.block_.Retransmits += pt.Retransmits
	s.block_.SimTimeTotalUS += pt.SimTimeUS
	if pt.SimTimeUS > s.block_.SimTimeMaxUS {
		s.block_.SimTimeMaxUS = pt.SimTimeUS
	}
	return nil
}

// End is a no-op; the aggregates are read by the caller.
func (s *streamSummary) End(scenario.Summary) error { return nil }

// headerResult rebuilds the scenario-level Result fields (points nil)
// for the bench entry.
func (s *streamSummary) headerResult() *scenario.Result {
	return &scenario.Result{
		SchemaVersion: s.header.SchemaVersion,
		Name:          s.header.Name,
		Workload:      s.header.Workload,
		Seed:          s.header.Seed,
		Peers:         s.header.Peers,
		Segments:      s.header.Segments,
		Axis:          s.header.Axis,
	}
}

// block returns the folded aggregates with the point counts filled in.
func (s *streamSummary) block() *streamBlock {
	b := s.block_
	b.Points = s.points
	b.Failed = s.failed
	return &b
}

// buildWallClock renders a Timing into the trajectory's wall_clock
// block; includePoints carries the per-point times (materialized runs
// only — the list is O(points)).
func buildWallClock(timing *scenario.Timing, serialWall time.Duration, includePoints bool) *wallClock {
	if timing == nil {
		return nil
	}
	ms := func(d time.Duration) float64 { return math.Round(float64(d)/float64(time.Millisecond)*1000) / 1000 }
	wc := &wallClock{
		Workers:            timing.Workers,
		TotalMS:            ms(timing.WallClock),
		MaxInFlight:        timing.MaxInFlight,
		MaxReorderDepth:    timing.MaxReorderDepth,
		HeapHighWaterBytes: timing.HeapHighWater,
	}
	if includePoints {
		for _, d := range timing.Points {
			wc.PointMS = append(wc.PointMS, ms(d))
		}
	}
	if serialWall > 0 && timing.WallClock > 0 {
		wc.SerialMS = ms(serialWall)
		wc.SpeedupVsSerial = math.Round(float64(serialWall)/float64(timing.WallClock)*100) / 100
	}
	return wc
}

// appendBench adds the entry to the trajectory file, replacing a
// previous entry with the same scenario name so re-runs update in
// place.
func appendBench(path string, entry *benchEntry) error {
	doc := benchFile{
		Paper: "conf_date_BasicSK23",
		Title: "Degraded-bus measurement scenarios (cmd/scenario)",
		Host:  fmt.Sprintf("%s/%s, %d CPU", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Methodology: "go run ./cmd/scenario — seeded, content-keyed fault injection on the " +
			"simulated multi-segment CAN fabric; all times are simulated (wire occupancy + " +
			"gateway store-and-forward + protocol timers), so curves are exactly reproducible " +
			"from the scenario definition and independent of host speed. wall_clock is the one " +
			"host-dependent block: the real time the engine spent, with sweep points fanned " +
			"out across -workers cores.",
	}
	// Only the accumulated scenarios survive from an existing file;
	// every header field describes this run and this tool version.
	if data, err := os.ReadFile(path); err == nil {
		var prev struct {
			Scenarios []*benchEntry `json:"scenarios"`
		}
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("existing %s unreadable: %w", path, err)
		}
		doc.Scenarios = prev.Scenarios
	}
	doc.Date = time.Now().UTC().Format("2006-01-02")
	kept := doc.Scenarios[:0]
	for _, r := range doc.Scenarios {
		if r.Name != entry.Name {
			kept = append(kept, r)
		}
	}
	doc.Scenarios = append(kept, entry)
	return writeFile(path, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	})
}
