package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/transport"
)

// impairment-grid: the impairment-grid-2k entry of `make
// bench-scenarios` (2 peers, 2 segments, corruption 0.003, 50 µs
// gateways, 10 attempts, drop 0..0.06 over 2048 points) streamed
// through scenario.RunStreamWith into a JSON sink with one worker per
// CPU. A run sized below half a grid sweeps a coarser grid over the
// same range; a larger one runs the whole grid as many times as its
// size rounds to, and every repetition must reproduce the first.
const (
	gridPoints          = 2048
	gridDropHi          = 0.06
	gridPointsPerSecond = 400
	gridWarmup          = 16
	gridChunk           = 128
	gridMirror          = 64
	mirrorBlock         = 8
)

// gridExpectation pins a grid's simulated aggregates.
type gridExpectation struct {
	seed   uint64
	points int
	totals gridTotals
}

// committedGrids are the stream blocks committed for the grid in
// BENCH_scenarios.json; a run with the same seed and size must
// reproduce them exactly.
var committedGrids = []gridExpectation{
	{42, gridPoints, gridTotals{Points: 2048, Handshakes: 4096, Retries: 1, Retransmits: 2108, SimTimeTotalUS: 7028755192}},
}

// gridTotals are a streamed grid's simulated aggregates, folded in
// point order exactly as cmd/scenario folds its stream block.
type gridTotals struct {
	Points, Failed, Errors, Handshakes, Retries, Retransmits int
	SimTimeTotalUS                                           float64
}

func gridScenario(seed uint64, values []float64) scenario.Scenario {
	return scenario.Scenario{
		Name:           "impairment-grid-2k",
		Seed:           seed,
		Peers:          2,
		Segments:       2,
		GatewayLatency: 50 * time.Microsecond,
		Profile:        scenario.Profile{Corrupt: 0.003},
		Workload:       scenario.WorkloadLatency,
		SweepAxis:      scenario.AxisDrop,
		SweepPoints:    values,
		Attempts:       10,
	}
}

// gridValues spaces n drop rates as cmd/scenario's lo..hi/n does.
func gridValues(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 0 + (gridDropHi-0)*float64(i)/float64(n-1)
	}
	return out
}

func setupGrid(seed uint64, seconds float64) (timedFunc, error) {
	budget := max(2, int(math.Round(seconds*gridPointsPerSecond)))
	if budget < gridPoints/2 {
		return newGrid(seed, 1, budget)
	}
	return newGrid(seed, (budget+gridPoints/2)/gridPoints, gridPoints)
}

// gridSink folds every streamed point into the aggregates, keeps the
// points the mirror samples, and notes the host time at which every
// gridChunk-th point, and the last of points, arrived in order.
type gridSink struct {
	totals  gridTotals
	sampled map[int]scenario.Point
	fabric  gridFabric
	points  int
	ends    []time.Time
}

// gridFabric sums the fabric counters the points carry.
type gridFabric struct {
	messages, frames, forwarded, faults, retransmits, resends int
	sim                                                       float64
}

func (g *gridSink) Begin(scenario.Header) error { return nil }

func (g *gridSink) Point(i int, pt scenario.Point, _ []byte) error {
	if (i+1)%gridChunk == 0 || i == g.points-1 {
		g.ends = append(g.ends, time.Now())
	}
	t := &g.totals
	t.Points++
	if pt.Error != "" || pt.Errors > 0 {
		t.Failed++
	}
	t.Errors += pt.Errors
	t.Handshakes += pt.Handshakes
	t.Retries += pt.Retries
	t.Retransmits += pt.Retransmits
	t.SimTimeTotalUS += pt.SimTimeUS
	if _, ok := g.sampled[i]; ok {
		g.sampled[i] = pt
	}
	f := &g.fabric
	for _, s := range pt.Steps {
		f.messages += s.Messages
		f.frames += s.Frames
	}
	f.forwarded += pt.GatewayForwarded
	f.faults += pt.BusDropped + pt.BusCorrupted + pt.BusDuplicated + pt.BusDelayed
	f.retransmits += pt.Retransmits
	f.resends += pt.MessageResends
	f.sim += pt.SimTimeUS
	return nil
}

func (g *gridSink) End(scenario.Summary) error { return nil }

// mirrorIndices are the evenly spaced points the traced run mirrors.
func mirrorIndices(points int) []int {
	n := min(gridMirror, points)
	out := make([]int, n)
	for k := range out {
		out[k] = k * (points - 1) / max(1, n-1)
	}
	return out
}

// checkGrid compares a grid's aggregates with a committed expectation
// for its seed and size, if there is one.
func checkGrid(seed uint64, got gridTotals, want []gridExpectation) error {
	for _, e := range want {
		if e.seed == seed && e.points == got.Points {
			return checkf(got == e.totals, "grid aggregates %+v, committed %+v", got, e.totals)
		}
	}
	return nil
}

// newGrid validates the scenario, warms the process up on the first
// points of the grid, and returns the timed loop of reps grids.
func newGrid(seed uint64, reps, points int) (timedFunc, error) {
	values := gridValues(points)
	s := gridScenario(seed, values)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	warm := gridScenario(seed, values[:min(gridWarmup, points)])
	if _, err := scenario.RunStreamWith(warm, []scenario.PointSink{&gridSink{}}, scenario.Options{}); err != nil {
		return nil, err
	}

	return func(tr *tracer) (*pass, error) {
		p := &pass{attempted: reps * points}
		var ch chunker
		var all []time.Duration
		var busy, elapsed time.Duration
		var workers, depth int
		var heapHigh uint64
		var sink *gridSink
		var doc bytes.Buffer
		var first gridTotals
		shared0 := core.SharedTables().Stats()

		start := time.Now()
		for r := 0; r < reps; r++ {
			doc.Reset()
			sink = &gridSink{sampled: map[int]scenario.Point{}, points: points}
			for _, i := range mirrorIndices(points) {
				sink.sampled[i] = scenario.Point{}
			}
			id := tr.begin("scenario.grid", -1, r, 0)
			t0 := time.Now()
			timing, err := scenario.RunStreamWith(s, []scenario.PointSink{scenario.NewJSONSink(&doc), sink}, scenario.Options{})
			d := time.Since(t0)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			res, err := scenario.ValidateJSON(doc.Bytes())
			if err != nil {
				return nil, fmt.Errorf("%w: streamed grid JSON: %v", errCheck, err)
			}
			if err := checkf(len(res.Points) == points, "streamed grid holds %d points, want %d", len(res.Points), points); err != nil {
				return nil, err
			}
			if err := checkGrid(seed, sink.totals, committedGrids); err != nil {
				return nil, err
			}
			if r == 0 {
				first = sink.totals
			} else if err := checkf(sink.totals == first, "grid %d aggregates %+v differ from grid 0's %+v", r, sink.totals, first); err != nil {
				return nil, err
			}
			p.failed += sink.totals.Failed
			lo, prev := 0, t0
			for _, end := range sink.ends {
				hi := min(lo+gridChunk, points)
				for _, pt := range timing.Points[lo:hi] {
					ch.sample(pt)
					busy += pt
				}
				ch.cut(hi-lo, end.Sub(prev))
				lo, prev = hi, end
			}
			all = append(all, timing.Points...)
			elapsed += d
			workers = timing.Workers
			depth = max(depth, timing.MaxReorderDepth)
			heapHigh = max(heapHigh, timing.HeapHighWater)
		}
		shared1 := core.SharedTables().Stats()

		f := sink.fabric
		perK := func(n int) float64 { return ratio(1000*float64(n), float64(f.messages)) }
		p.perSecond, p.p50, p.tail = timings(ch.chunks, 99)
		sh, sm := float64(shared1.Hits-shared0.Hits), float64(shared1.Misses-shared0.Misses)
		p.layer = map[string]float64{
			"core.shared_table_hit_ratio":   ratio(sh, sh+sm),
			"canbus.frames_per_delivery":    ratio(float64(f.frames), float64(f.messages)),
			"canbus.forwarded_per_delivery": ratio(float64(f.forwarded), float64(f.messages)),
			"canbus.faults":                 float64(f.faults),
			"cantp.retransmits_per_1k":      perK(f.retransmits),
			"transport.resends_per_1k":      perK(f.resends),
			"transport.sim_s_per_host_s":    ratio(f.sim/1e6, elapsed.Seconds()/float64(reps)),
			"scenario.point_p99_ms":         percentile(micros(all), 99) / 1000,
			"scenario.worker_utilization":   ratio(busy.Seconds(), elapsed.Seconds()*float64(workers)),
			"scenario.max_reorder_depth":    float64(depth),
			"scenario.heap_high_water_mb":   float64(heapHigh) / (1 << 20),
		}
		if tr != nil {
			if err := mirrorGrid(s, sink.sampled, tr, p.layer); err != nil {
				return nil, err
			}
		}
		p.wall = time.Since(start)
		// Every point's fabric, parties and manager are gone by now; what
		// stays is the state the run left in the process.
		p.liveHeapMB = liveHeapMB()
		return p, nil
	}, nil
}

// mirrorGrid re-runs the sampled points from public calls with spans
// around provisioning, fabric and engine work, checks that each
// reproduces the engine's simulated counters exactly, and reports
// where a point's host time goes. To compare host time like for like,
// blocks of mirrored points alternate with serial engine runs of the
// same points, and mirror_over_engine is the median per-point ratio.
func mirrorGrid(s scenario.Scenario, sampled map[int]scenario.Point, tr *tracer, out map[string]float64) error {
	var cache core.CacheStats
	var ratios []float64
	idx := mirrorIndices(len(s.SweepPoints))
	for lo := 0; lo < len(idx); lo += mirrorBlock {
		block := idx[lo:min(lo+mirrorBlock, len(idx))]
		engine := s
		engine.SweepPoints = nil
		for _, i := range block {
			engine.SweepPoints = append(engine.SweepPoints, s.SweepPoints[i])
		}
		id := tr.begin("grid.engine_block", -1, lo, 0)
		timing, err := scenario.RunStreamWith(engine, []scenario.PointSink{&gridSink{}}, scenario.Options{Workers: 1})
		tr.end(id)
		if err != nil {
			return err
		}
		for k, i := range block {
			want := sampled[i]
			t0 := time.Now()
			got, err := mirrorPoint(s, i, tr)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("mirror point %d: %w", i, err)
			}
			if err := checkf(got.handshakes == want.Handshakes && got.retransmits == want.Retransmits && got.simUS == want.SimTimeUS,
				"mirror point %d: handshakes %d retransmits %d sim %.3fus, engine %d %d %.3fus",
				i, got.handshakes, got.retransmits, got.simUS, want.Handshakes, want.Retransmits, want.SimTimeUS); err != nil {
				return err
			}
			ratios = append(ratios, ratio(d.Seconds(), timing.Points[k].Seconds()))
			cache.Hits += got.cache.Hits
			cache.Misses += got.cache.Misses
			cache.WaveItems += got.cache.WaveItems
			cache.WaveBatches += got.cache.WaveBatches
		}
	}
	total := tr.total("grid.point")
	var crypto time.Duration
	for _, step := range append(engineSteps, "core.extra") {
		crypto += tr.total(step)
	}
	provision := tr.total("grid.provision")
	fabric := tr.total("grid.fabric_build") + tr.total("transport.flush") + tr.total("transport.deliver")
	share := func(d time.Duration) float64 { return ratio(d.Seconds(), total.Seconds()) }
	out["grid.provision_share"] = share(provision)
	out["grid.crypto_share"] = share(crypto)
	out["grid.fabric_share"] = share(fabric)
	out["grid.other_share"] = share(total - provision - crypto - fabric)
	out["grid.mirror_over_engine"] = median(ratios)
	out["core.keycache_hit_ratio"] = ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses))
	out["core.wave_items_per_batch"] = ratio(float64(cache.WaveItems), float64(cache.WaveBatches))
	return nil
}

// mirrored is what one mirrored point reproduced.
type mirrored struct {
	handshakes, retransmits int
	simUS                   float64
	cache                   core.CacheStats
}

// mirrorPoint rebuilds grid point i the way the scenario engine's
// latency workload does — provisioning seeded from the scenario seed
// and the drop rate, the two-segment chain, a Manager with per-attempt
// randomness and the retry budget, one serial handshake per peer — with
// the benchmark's span carrier in place of fleet.NetCarrier.
func mirrorPoint(s scenario.Scenario, i int, tr *tracer) (mirrored, error) {
	v := s.SweepPoints[i]
	pt := tr.begin("grid.point", -1, i, 0)
	defer tr.end(pt)

	prov := tr.begin("grid.provision", pt, i, 0)
	net, err := core.NewNetwork(ec.P256(), detrand.NewReader(detrand.DeriveSeed(s.Seed, []byte("provision"), math.Float64bits(v))))
	if err != nil {
		return mirrored{}, err
	}
	self, err := net.Provision("scenario-manager")
	if err != nil {
		return mirrored{}, err
	}
	peers := make([]*core.Party, s.Peers)
	for k := range peers {
		if peers[k], err = net.Provision(fmt.Sprintf("ecu-%02d", k)); err != nil {
			return mirrored{}, err
		}
		peers[k].Rand = detrand.NewReader(detrand.DeriveSeed(s.Seed, peers[k].ID[:], 0xB0B))
	}
	tr.end(prov)

	build := tr.begin("grid.fabric_build", pt, i, 0)
	fab, err := topology{
		segments: s.Segments,
		pairs:    s.Peers,
		impair:   canbus.Impairment{Seed: s.Seed, Drop: v, Corrupt: s.Profile.Corrupt},
		latency:  s.GatewayLatency,
		acc:      transport.NewAccounting(),
	}.build()
	tr.end(build)
	if err != nil {
		return mirrored{}, err
	}

	m, err := fleet.NewManager(self, core.OptNone, session.DefaultPolicy)
	if err != nil {
		return mirrored{}, err
	}
	m.SetRetryPolicy(fleet.RetryPolicy{MaxAttempts: s.Attempts})
	ordinals := make(map[ecqv.ID]uint64)
	m.SetHandshakeRand(func(peer ecqv.ID, attempt int) io.Reader {
		n := ordinals[peer]
		ordinals[peer] = n + 1
		return detrand.NewReader(detrand.DeriveSeed(s.Seed, peer[:], 0xA11CE, n))
	})
	slot := make(map[ecqv.ID]int, len(peers))
	for k, p := range peers {
		slot[p.ID] = k
	}
	m.SetCarrier(func(peer *core.Party) (fleet.Carrier, error) {
		k := slot[peer.ID]
		return &spanCarrier{tr: tr, parent: pt, req: i, link: fab.link, local: fab.locals[k], remote: fab.remotes[k], sessionID: uint16(k + 1)}, nil
	})
	for _, p := range peers {
		_ = m.Connect(p) // a failed handshake shows in the compared counters
	}

	got := mirrored{handshakes: m.Stats().Handshakes, cache: self.KeyCache().Stats()}
	for _, eps := range [][]*transport.Endpoint{fab.locals, fab.remotes} {
		for _, e := range eps {
			got.retransmits += e.Stats().Retransmits
		}
	}
	got.simUS = float64(fab.world.Clock.Now()) / float64(time.Microsecond)
	return got, nil
}
