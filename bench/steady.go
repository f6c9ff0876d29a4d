package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/fleet"
	"repro/internal/session"
)

// steady-traffic: one client drives records to 16 static peers of one
// gateway. With MaxRecords 32 every peer's key is exhausted once per
// period of 16×32 ops; set-up leaves every key exhausted, so each
// period opens with exactly 16 transparent rekeys and a chunk of whole
// periods always does the same work.
const (
	steadyPeers            = 16
	steadyMaxRecords       = 32
	steadyPeriod           = steadyPeers * steadyMaxRecords
	steadyPeriodsPerSecond = 39 // ≈ 400k ops at --seconds 20
	steadyChunkPeriods     = 2
	payloadSize            = 64
	payloadRing            = 1024
)

func setupSteady(seed uint64, seconds float64) (timedFunc, error) {
	return newSteady(seed, scaled(seconds, steadyPeriodsPerSecond))
}

// scaled converts --seconds into a whole number (≥ 1) of work units.
func scaled(seconds, perSecond float64) int {
	return max(1, int(math.Round(seconds*perSecond)))
}

// newSteady provisions the gateway and its peers, brings the fleet up,
// runs one full rekey round so every key cache is warm, spends one
// period of records so every key is due, and returns the timed loop of
// periods×512 ops.
func newSteady(seed uint64, periods int) (timedFunc, error) {
	net, err := core.NewNetwork(ec.P256(), detrand.NewReader(detrand.DeriveSeed(seed, []byte("steady-traffic"))))
	if err != nil {
		return nil, err
	}
	names := []string{"gateway"}
	for i := 0; i < steadyPeers; i++ {
		names = append(names, fmt.Sprintf("ecu-%02d", i))
	}
	// One provisioning worker keeps the certificates a function of the
	// seed: parallel workers would draw the shared stream in any order.
	parties, err := net.ProvisionBatch(names, 1)
	if err != nil {
		return nil, err
	}
	gw, peers := parties[0], parties[1:]
	m, err := fleet.NewManager(gw, core.OptNone, session.Policy{MaxRecords: steadyMaxRecords})
	if err != nil {
		return nil, err
	}
	if err := errors.Join(m.EstablishAll(peers, 1)...); err != nil {
		return nil, err
	}
	for _, p := range peers {
		if err := m.Connect(p); err != nil {
			return nil, err
		}
	}
	payloads := make([][]byte, payloadRing)
	src := detrand.NewReader(detrand.DeriveSeed(seed, []byte("payloads")))
	for i := range payloads {
		payloads[i] = make([]byte, payloadSize)
		if _, err := io.ReadFull(src, payloads[i]); err != nil {
			return nil, err
		}
	}
	for k := 0; k < steadyPeriod; k++ {
		peer := peers[k%steadyPeers].ID
		rec, err := m.Seal(peer, payloads[k%payloadRing])
		if err == nil {
			_, err = m.Open(peer, rec)
		}
		if err != nil {
			return nil, err
		}
	}

	return func(tr *tracer) (*pass, error) {
		n := periods * steadyPeriod
		var cur spanCarrier
		if tr != nil {
			cur.tr = tr
			m.SetCarrier(func(*core.Party) (fleet.Carrier, error) {
				c := cur
				return &c, nil
			})
		}
		var ch chunker
		records := make([]time.Duration, 0, n)
		var rekeys []time.Duration
		st0 := m.Stats()
		seen := st0.Rekeys
		p := &pass{attempted: n}

		start := time.Now()
		from, done := start, 0
		for k := 0; k < n; k++ {
			peer := peers[k%steadyPeers].ID
			payload := payloads[k%payloadRing]
			op := tr.begin("steady.op", -1, k, 0)
			t0 := time.Now()
			cur.parent, cur.req = tr.begin("fleet.seal", op, k, 0), k
			rec, err := m.Seal(peer, payload)
			tr.end(cur.parent)
			var got []byte
			if err == nil {
				open := tr.begin("fleet.open", op, k, 0)
				got, err = m.Open(peer, rec)
				tr.end(open)
			}
			d := time.Since(t0)
			tr.end(op)

			if err != nil {
				p.failed++
			} else if !bytes.Equal(got, payload) {
				return nil, checkf(false, "op %d: Open returned %x, sealed %x", k, got, payload)
			}
			ch.sample(d)
			// Read outside the timed interval: did this op rekey?
			if r := m.Stats().Rekeys; r != seen {
				rekeys = append(rekeys, d)
				seen = r
			} else {
				records = append(records, d)
			}
			if (k+1)%(steadyChunkPeriods*steadyPeriod) == 0 || k == n-1 {
				now := time.Now()
				ch.cut(k+1-done, now.Sub(from))
				from, done = now, k+1
			}
		}
		p.wall = time.Since(start)

		st := m.Stats()
		// Every peer exhausts its key once per period.
		if err := checkf(p.failed > 0 || st.Rekeys-st0.Rekeys == steadyPeers*periods,
			"%d rekeys, want %d", st.Rekeys-st0.Rekeys, steadyPeers*periods); err != nil {
			return nil, err
		}
		p.perSecond, p.p50, p.tail = timings(ch.chunks, 99)
		p.layer = cacheMetrics(st0, st)
		p.layer["fleet.rekey_p50_us"] = median(micros(rekeys))
		p.layer["session.record_p99_us"] = percentile(micros(records), 99)
		if tr != nil {
			p.layer["fleet.rekey_overhead_us"] = median(rekeyOverhead(tr))
		}
		p.liveHeapMB = liveHeapMB(m, peers, payloads)
		return p, nil
	}, nil
}

// cacheMetrics turns two snapshots of a manager's stats into the key
// cache metrics of its local party (the gateway) and the process-wide
// shared table cache.
func cacheMetrics(a, b fleet.Stats) map[string]float64 {
	kc := func(s fleet.Stats) (hits, misses float64) {
		return float64(s.KeyCache.Hits), float64(s.KeyCache.Misses)
	}
	h0, m0 := kc(a)
	h1, m1 := kc(b)
	sh := float64(b.SharedTables.Hits - a.SharedTables.Hits)
	sm := float64(b.SharedTables.Misses - a.SharedTables.Misses)
	return map[string]float64{
		"core.keycache_hit_ratio":     ratio(h1-h0, (h1-h0)+(m1-m0)),
		"core.shared_table_hit_ratio": ratio(sh, sh+sm),
		"core.wave_items_per_batch": ratio(float64(b.KeyCache.WaveItems-a.KeyCache.WaveItems),
			float64(b.KeyCache.WaveBatches-a.KeyCache.WaveBatches)),
	}
}

// rekeyOverhead returns, for every Seal span that ran a handshake, its
// duration minus the engine calls under it: the fleet and session work
// a transparent rekey adds around the cryptography, in µs.
func rekeyOverhead(tr *tracer) []float64 {
	var out []float64
	for id, e := range tr.engineTime() {
		ex := tr.spans[id]
		if ex.name != "fleet.exchange" || ex.parent < 0 || tr.spans[ex.parent].name != "fleet.seal" {
			continue
		}
		seal := tr.spans[ex.parent]
		out = append(out, float64(seal.end-seal.start-e)/float64(time.Microsecond))
	}
	return out
}
