// Command bench is the repository's layered benchmark. It drives the
// system from outside, through the public functions of fleet, core,
// session, transport, canbus and scenario, in four closed-loop
// workloads, and prints one JSON result line:
//
//	bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--trace-out <file>]
//
// The untraced run (--trace 0) prints the end-to-end metrics, all host
// time. The traced run (--trace 1) repeats the workload with spans
// recorded around the layer calls, runs the layer ledger, and prints
// the per-layer metrics; --trace-out also writes the spans as Chrome
// trace-event JSON. --seconds sizes the run: each workload performs a
// fixed number of operations per second of --seconds, so every commit
// does the same work. A failed output check exits non-zero without
// printing a result.
//
// --workload all re-executes the binary once per workload, so process
// state (the shared table cache, the heap, RSS) never leaks between
// workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, all host time,
// reported by every workload for its own unit of work (see README).
// The timing bounds are wide because the host's speed drifts between
// runs, which no in-run statistic removes (see README). The live heaps
// are small enough for runtime bookkeeping to move them by a few
// percent.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_us", "us", "lower", 0.25},
}

// perLayer are the traced run's metrics. Each is printed on every
// workload; one whose layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"fp.mul_ns", "ns", "lower", 0},
	{"fp.sqr_ns", "ns", "lower", 0},
	{"fp.inv_ns", "ns", "lower", 0},
	{"ec.scalar_mult_us", "us", "lower", 0},
	{"ec.scalar_base_mult_us", "us", "lower", 0},
	{"ec.combined_mult_us", "us", "lower", 0},
	{"ecdsa.sign_us", "us", "lower", 0},
	{"ecdsa.verify_us", "us", "lower", 0},
	{"ecdsa.verify_cached_us", "us", "lower", 0},
	{"ecdsa.verify_batch16_item_us", "us", "lower", 0},
	{"ecqv.issue_us", "us", "lower", 0},
	{"ecqv.reconstruct_us", "us", "lower", 0},
	{"ecqv.extract_us", "us", "lower", 0},
	{"session.seal_open_us", "us", "lower", 0},
	{"session.record_p99_us", "us", "lower", 0},
	{"core.sts_over_secdsa", "ratio", "lower", 0},
	{"core.a1_us", "us", "lower", 0},
	{"core.b1_us", "us", "lower", 0},
	{"core.a2_us", "us", "lower", 0},
	{"core.b2_us", "us", "lower", 0},
	{"core.handshake_compute_us", "us", "lower", 0},
	{"core.keycache_hit_ratio", "ratio", "higher", 0},
	{"core.shared_table_hit_ratio", "ratio", "higher", 0},
	{"core.wave_items_per_batch", "count", "higher", 0},
	{"fleet.rekey_p50_us", "us", "lower", 0},
	{"fleet.rekey_overhead_us", "us", "lower", 0},
	{"fleet.pool_utilization", "ratio", "higher", 0},
	{"canbus.frames_per_delivery", "count", "lower", 0},
	{"canbus.forwarded_per_delivery", "count", "lower", 0},
	{"canbus.faults", "count", "lower", 0},
	{"canbus.egress_queued", "count", "lower", 0},
	{"cantp.retransmits_per_1k", "1/1k", "lower", 0},
	{"cantp.abandoned_per_1k", "1/1k", "lower", 0},
	{"transport.resends_per_1k", "1/1k", "lower", 0},
	{"transport.overflow_aborts", "count", "lower", 0},
	{"transport.sim_s_per_host_s", "s/s", "higher", 0},
	{"scenario.point_p99_ms", "ms", "lower", 0},
	{"scenario.worker_utilization", "ratio", "higher", 0},
	{"scenario.max_reorder_depth", "count", "lower", 0},
	{"scenario.heap_high_water_mb", "MB", "lower", 0},
	{"grid.provision_share", "ratio", "lower", 0},
	{"grid.crypto_share", "ratio", "lower", 0},
	{"grid.fabric_share", "ratio", "lower", 0},
	{"grid.other_share", "ratio", "lower", 0},
	{"grid.mirror_over_engine", "ratio", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.scaling_nproc_vs_1", "ratio", "higher", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult keeps exactly the metrics of specs, taking their units from
// the specs and each value from the last of sources that has it; a
// spec no source has reads 0.
func newResult(p *pass, specs []metricSpec, sources ...map[string]float64) result {
	r := result{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: make(map[string]metric, len(specs))}
	for _, s := range specs {
		m := metric{Unit: s.Unit}
		for _, src := range sources {
			if v, ok := src[s.Name]; ok {
				m.Value = v
			}
		}
		r.Metrics[s.Name] = m
	}
	return r
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: steady-traffic | fleet-bringup | fabric-relay | impairment-grid | all")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "run size: each workload does a fixed number of operations per second of this value")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run printing the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1: write the spans here as Chrome trace-event JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(stdout, stderr, *seed, *seconds, *traced)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(w, *seed, *seconds, *traced == 1, *traceOut, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runAll re-executes this binary once per workload, so that no process
// state leaks between workloads, and prints each child's result as one
// JSON line tagged with the workload's name.
func runAll(stdout, stderr io.Writer, seed uint64, seconds float64, traced int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, w := range workloads {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traced))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		fmt.Fprintf(stdout, "{\"workload\":%q,\"result\":%s}\n", w.name, lines[len(lines)-1])
	}
	return 0
}

// pass is what one timed phase of a workload measured. Every workload
// checks its own outputs inside the phase and returns an error, not a
// pass, when a check fails.
type pass struct {
	wall       time.Duration // whole timed phase
	perSecond  float64       // ops/s, see timings
	p50, tail  float64       // µs, the workload's latency, see timings
	attempted  int
	failed     int
	liveHeapMB float64

	// layer holds the per-layer values the workload measured itself:
	// counter deltas in every pass, span-derived values in the traced
	// one.
	layer map[string]float64
}

// timedFunc runs the timed phase on state built by one setup. A non-nil
// tracer makes it the traced pass.
type timedFunc func(tr *tracer) (*pass, error)

// workload is one closed-loop input set of the benchmark.
type workload struct {
	name string
	// setupReps is how many times a run sets up; setup_s is the median.
	// Cheap set-ups repeat more, so that one of a few milliseconds still
	// gives a steady median.
	setupReps int
	setup     func(seed uint64, seconds float64) (timedFunc, error)
}

var workloads = []workload{
	{"steady-traffic", 21, setupSteady},
	{"fleet-bringup", 3, setupBringup},
	{"fabric-relay", 301, setupRelay},
	{"impairment-grid", 21, setupGrid},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload sets the workload up setupReps times, measures its timed
// phase and, for a traced run, repeats the phase with spans, once more
// at GOMAXPROCS=1, and runs the layer ledger.
func runWorkload(w workload, seed uint64, seconds float64, traced bool, traceOut string, stderr io.Writer) (result, error) {
	var setups []float64
	var timed timedFunc
	for i := 0; i < w.setupReps; i++ {
		// Each set-up starts on a collected heap, as in a fresh process,
		// so no set-up pays for the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		fn, err := w.setup(seed, seconds)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		timed = fn
	}
	p, err := timed(nil)
	if err != nil {
		return result{}, err
	}
	if !traced {
		return newResult(p, endToEnd, map[string]float64{
			"setup_s":      median(setups),
			"live_heap_mb": p.liveHeapMB,
			"ops_per_s":    p.perSecond,
			"op_p50_us":    p.p50,
			"op_tail_us":   p.tail,
		}), nil
	}
	rss := peakRSSMB()

	// The two extra passes run at half size, which keeps a traced run
	// within a few times an untraced one; they feed only rates and
	// per-operation values, which do not depend on the size.
	tr := newTracer()
	tp, err := freshPass(w, seed, seconds/2, tr)
	if err != nil {
		return result{}, fmt.Errorf("traced pass: %w", err)
	}
	prev := runtime.GOMAXPROCS(1)
	serial, err := freshPass(w, seed, seconds/2, nil)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return result{}, fmt.Errorf("GOMAXPROCS=1 pass: %w", err)
	}
	led, err := ledger(seed, stderr)
	if err != nil {
		return result{}, fmt.Errorf("ledger: %w", err)
	}
	if traceOut != "" {
		if err := writeTrace(tr, traceOut); err != nil {
			return result{}, err
		}
	}
	return newResult(tp, perLayer, led, spanMetrics(tr), tp.layer, map[string]float64{
		"proc.peak_rss_mb":        rss,
		"proc.scaling_nproc_vs_1": ratio(p.perSecond, serial.perSecond),
		"trace.overhead_ratio":    ratio(p.perSecond, tp.perSecond),
		"trace.coverage":          ratio(tr.topLevel().Seconds(), tp.wall.Seconds()),
	}), nil
}

// freshPass sets the workload up once more and runs its timed phase.
func freshPass(w workload, seed uint64, seconds float64, tr *tracer) (*pass, error) {
	timed, err := w.setup(seed, seconds)
	if err != nil {
		return nil, err
	}
	return timed(tr)
}

// spanMetrics derives the engine-call metrics shared by every workload
// that runs handshakes under the benchmark's carrier.
func spanMetrics(tr *tracer) map[string]float64 {
	out := map[string]float64{}
	for _, step := range engineSteps[:4] {
		out[step+"_us"] = median(tr.durations(step))
	}
	var sums []float64
	for id, d := range tr.engineTime() {
		if tr.spans[id].name == "fleet.exchange" {
			sums = append(sums, float64(d)/float64(time.Microsecond))
		}
	}
	out["core.handshake_compute_us"] = median(sums)
	return out
}

func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// liveHeapMB collects garbage and returns the live heap while keep (the
// workload's managers, parties and fabric) is still reachable.
func liveHeapMB(keep ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// errCheck marks a failed output check.
var errCheck = errors.New("output check failed")

// checkf returns a wrapped errCheck when cond is false.
func checkf(cond bool, format string, args ...any) error {
	if cond {
		return nil
	}
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}
