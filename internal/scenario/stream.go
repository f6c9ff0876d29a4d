package scenario

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conc"
)

// ReorderSlack is the extra reorder-window headroom past the worker
// count: a worker that finishes point i may start point i+window-ish
// while an earlier point is still simulating, so a little slack keeps
// fast workers busy without letting completed points pile up. Peak
// residency of a streaming run is bounded by workers + ReorderSlack
// points (plus their trace buffers), independent of sweep length —
// that bound is asserted after every run and recorded in
// Timing.MaxReorderDepth.
const ReorderSlack = 8

// heapSampleEvery is how many flushed points pass between heap
// high-water samples (plus one final sample at the end of the run).
const heapSampleEvery = 32

// RunStreamWith executes the scenario with points fanned out across
// o.Workers isolated fabrics, streaming each completed point to every
// sink in index order as soon as its contiguous prefix is done, then
// releasing it — peak memory is O(workers + ReorderSlack), not
// O(points), which is what makes 10k-point sweeps practical. Sink
// calls are serialized and in order, and the emitted bytes are
// byte-identical to materializing the Result first (the sinks share
// the writers' code), at any worker count.
//
// Admission is gated on the reorder window: a worker may not start
// point i until point i-(workers+ReorderSlack) has been flushed, which
// bounds how far completed points can run ahead of a slow early point.
// No deadlock is possible: internal/conc dispatches indices in order,
// so the worker holding the next unflushed index is never gated.
//
// Trace generation is skipped entirely unless some sink is a
// *TraceSink, and only TraceSinks receive trace bytes. Any sink or
// trace-write error aborts the run. On success every sink has seen
// Begin, every Point, and End.
func RunStreamWith(s Scenario, sinks []PointSink, o Options) (*Timing, error) {
	if len(sinks) == 0 {
		return nil, fmt.Errorf("scenario: RunStreamWith needs at least one sink")
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	axis := s.SweepAxis
	if axis == "" {
		axis = AxisDrop
	}
	values := s.points()
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(values) {
		workers = len(values)
	}
	timing := &Timing{Workers: workers, Points: make([]time.Duration, len(values))}

	h := Header{
		SchemaVersion: SchemaVersion,
		Name:          s.Name,
		Workload:      s.Workload,
		Seed:          s.Seed,
		Peers:         s.Peers,
		Segments:      s.Segments,
		Axis:          axis,
		NumPoints:     len(values),
	}
	for _, sink := range sinks {
		if err := sink.Begin(h); err != nil {
			return nil, err
		}
	}

	trace := wantsTrace(sinks)
	window := workers + ReorderSlack
	em := newEmitter(sinks, window)

	var inFlight, maxInFlight int64
	start := time.Now() //detlint:allow wallclock out-of-band host timing; Timing never reaches Result bytes
	conc.ForEach(len(values), workers, func(i int) {
		if !em.admit(i) {
			return // the run already failed; drain without simulating
		}
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			m := atomic.LoadInt64(&maxInFlight)
			if cur <= m || atomic.CompareAndSwapInt64(&maxInFlight, m, cur) {
				break
			}
		}
		defer atomic.AddInt64(&inFlight, -1)

		// The trace buffer is private to this point and released as
		// soon as the emitter flushes it — unlike the old materialized
		// path, which held every point's buffer until the sweep ended.
		var tr *tracer
		var buf *bytes.Buffer
		if trace {
			buf = new(bytes.Buffer)
			tr = &tracer{w: buf}
		}
		t0 := time.Now() //detlint:allow wallclock out-of-band host timing; Timing never reaches Result bytes
		pt, err := runPointFn(s, values[i], axis, tr)
		timing.Points[i] = time.Since(t0) //detlint:allow wallclock out-of-band host timing; Timing never reaches Result bytes
		if err != nil {
			// A pathological point must not abort the sweep: record
			// the failure in place, keep the index alignment, and let
			// the remaining points measure.
			pt = Point{Axis: axis, Value: values[i], Error: err.Error()}
			tr.printf("point-error %s=%.4f: %v\n", axis, values[i], err)
		}
		var tb []byte
		var terr error
		if tr != nil {
			tb, terr = buf.Bytes(), tr.err
		}
		em.deliver(i, pt, tb, terr)
	})
	timing.WallClock = time.Since(start) //detlint:allow wallclock out-of-band host timing; Timing never reaches Result bytes
	timing.MaxInFlight = int(maxInFlight)
	timing.MaxReorderDepth = em.maxDepth
	timing.HeapHighWater = em.finalHeapSample()

	if em.err != nil {
		return nil, em.err
	}
	if em.maxDepth > window {
		// By construction this cannot happen (admission is gated on the
		// window); if it ever does, the memory-bound contract is broken
		// and the run must fail loudly rather than report a bogus bound.
		return nil, fmt.Errorf("scenario: reorder window exceeded its bound: depth %d > %d (workers %d + slack %d)",
			em.maxDepth, window, workers, ReorderSlack)
	}
	sum := Summary{Points: len(values), Failed: em.failed, MaxReorderDepth: em.maxDepth}
	for _, sink := range sinks {
		if err := sink.End(sum); err != nil {
			return nil, err
		}
	}
	return timing, nil
}

// pointRec is one completed point waiting in the reorder window.
type pointRec struct {
	pt    Point
	trace []byte
}

// emitter is the ordered flush stage of a streaming run: workers
// deliver completed points in whatever order they finish, the emitter
// holds them in a window keyed by index and flushes the longest
// contiguous prefix to the sinks, releasing the memory. Admission
// gating (admit) keeps the window bounded; a sink or tracer error
// aborts the run and unblocks every gated worker.
type emitter struct {
	mu   sync.Mutex
	cond *sync.Cond

	sinks  []PointSink
	window int

	next     int              // lowest index not yet flushed
	pending  map[int]pointRec // completed, waiting for the prefix
	maxDepth int              // peak len(pending): the memory evidence
	failed   int              // points flushed with a recorded Error
	flushes  int
	heapHigh uint64

	err     error
	aborted bool
}

func newEmitter(sinks []PointSink, window int) *emitter {
	em := &emitter{sinks: sinks, window: window, pending: make(map[int]pointRec, window)}
	em.cond = sync.NewCond(&em.mu)
	return em
}

// admit blocks until point i fits in the reorder window (i.e. point
// i-window has been flushed), returning false if the run has already
// failed. conc.ForEach hands out indices in order, so the worker
// holding index em.next is never blocked here — that is the
// no-deadlock invariant.
func (em *emitter) admit(i int) bool {
	em.mu.Lock()
	defer em.mu.Unlock()
	for !em.aborted && i >= em.next+em.window {
		em.cond.Wait()
	}
	return !em.aborted
}

// deliver hands a completed point (and its trace bytes) to the
// emitter. trErr is the point's tracer error, if any — a trace that
// failed to record disqualifies the whole stream, exactly like a sink
// write failure.
func (em *emitter) deliver(i int, pt Point, trace []byte, trErr error) {
	em.mu.Lock()
	defer em.mu.Unlock()
	if em.aborted {
		return
	}
	if trErr != nil {
		em.failLocked(fmt.Errorf("scenario: point %d trace: %w", i, trErr))
		return
	}
	em.pending[i] = pointRec{pt: pt, trace: trace}
	if d := len(em.pending); d > em.maxDepth {
		em.maxDepth = d
	}
	for {
		rec, ok := em.pending[em.next]
		if !ok {
			break
		}
		for _, sink := range em.sinks {
			var tb []byte
			if _, isTrace := sink.(*TraceSink); isTrace {
				tb = rec.trace
			}
			if err := sink.Point(em.next, rec.pt, tb); err != nil {
				em.failLocked(err)
				return
			}
		}
		if rec.pt.Error != "" {
			em.failed++
		}
		delete(em.pending, em.next)
		em.next++
		em.flushes++
		if em.flushes%heapSampleEvery == 0 {
			em.sampleHeapLocked()
		}
	}
	em.cond.Broadcast()
}

// failLocked records the first error, marks the run aborted and wakes
// every gated worker so the pool drains. Callers hold em.mu.
func (em *emitter) failLocked(err error) {
	if em.err == nil {
		em.err = err
	}
	em.aborted = true
	em.cond.Broadcast()
}

// sampleHeapLocked updates the heap high-water mark. Callers hold
// em.mu; ReadMemStats is a stop-the-world pause, which is why samples
// are spaced heapSampleEvery flushes apart rather than per point.
func (em *emitter) sampleHeapLocked() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > em.heapHigh {
		em.heapHigh = ms.HeapAlloc
	}
}

// finalHeapSample takes one last sample after the pool has drained and
// returns the high-water mark.
func (em *emitter) finalHeapSample() uint64 {
	em.mu.Lock()
	defer em.mu.Unlock()
	em.sampleHeapLocked()
	return em.heapHigh
}
