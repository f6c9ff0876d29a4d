package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It sorts a copy, so callers keep their sample order. An empty
// input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio divides, returning 0 when the denominator is 0 so that a
// metric over an empty population prints as 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// micros converts host durations to microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// rate is operations per second.
func rate(ops int, d time.Duration) float64 { return ratio(float64(ops), d.Seconds()) }

// chunk is one slice of a timed phase: the host time it took, the
// operations it completed, and its samples of the workload's latency in
// µs.
type chunk struct {
	wall time.Duration
	ops  int
	lat  []float64
}

// chunker cuts a timed phase into chunks as the workload's loop runs.
type chunker struct {
	chunks []chunk
	cur    chunk
}

// sample adds a latency sample to the current chunk.
func (c *chunker) sample(d time.Duration) {
	c.cur.lat = append(c.cur.lat, float64(d)/float64(time.Microsecond))
}

// cut closes the current chunk: ops operations in wall host time.
func (c *chunker) cut(ops int, wall time.Duration) {
	c.cur.ops, c.cur.wall = ops, wall
	c.chunks = append(c.chunks, c.cur)
	c.cur = chunk{}
}

// Interference from the rest of a shared host only ever slows work
// down, and it comes and goes within a run, in bursts of seconds that
// can cover most of one. Every workload therefore cuts its timed phase
// into chunks of equal work, and a run's end-to-end timings come from
// its fastest quarter of chunks: those measure the code, the slower
// ones mostly the neighbours. A change that slows the code slows every
// chunk, so it still shows; one that slows fewer than three quarters of
// the chunks is filtered out like the host's interference.

// timings returns, over the fastest quarter of cs by rate, the
// throughput in ops/s and the median and tailPct-th percentile of the
// latency samples in µs.
func timings(cs []chunk, tailPct float64) (perSecond, p50, tail float64) {
	s := append([]chunk(nil), cs...)
	sort.SliceStable(s, func(i, j int) bool { return rate(s[i].ops, s[i].wall) > rate(s[j].ops, s[j].wall) })
	var ops int
	var wall time.Duration
	var lat []float64
	for _, c := range s[:(len(s)+3)/4] {
		ops += c.ops
		wall += c.wall
		lat = append(lat, c.lat...)
	}
	return rate(ops, wall), median(lat), percentile(lat, tailPct)
}
