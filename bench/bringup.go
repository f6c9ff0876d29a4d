package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/fleet"
	"repro/internal/session"
)

// fleet-bringup: waves of 64 peers power on against one gateway, each
// wave a fresh Manager running EstablishAll with GOMAXPROCS workers.
// The peer pool cycles: 65 waves of peers is more than the gateway's
// KeyCache (4096 entries) and the process's SharedTableCache (1024)
// hold, both reset wholesale when full, so a peer is always evicted
// before it comes round again; and each wave takes fresh copies of its
// peers, so their own caches start cold too. Every handshake therefore
// pays extraction and table builds, as a never-seen fleet would.
const (
	waveSize              = 64
	bringupWavesPerSecond = 10
	bringupPoolWaves      = 65
)

func setupBringup(seed uint64, seconds float64) (timedFunc, error) {
	waves := scaled(seconds, bringupWavesPerSecond)
	return newBringup(seed, waves, min(waves, bringupPoolWaves)*waveSize)
}

// newBringup provisions the gateway and a pool of peers and returns the
// timed loop of waves.
func newBringup(seed uint64, waves, pool int) (timedFunc, error) {
	net, err := core.NewNetwork(ec.P256(), detrand.NewReader(detrand.DeriveSeed(seed, []byte("fleet-bringup"))))
	if err != nil {
		return nil, err
	}
	names := []string{"gateway"}
	for i := 0; i < pool; i++ {
		names = append(names, fmt.Sprintf("ecu-%05d", i))
	}
	parties, err := net.ProvisionBatch(names, 1)
	if err != nil {
		return nil, err
	}
	gw, peers := parties[0], parties[1:]

	return func(tr *tracer) (*pass, error) {
		workers := runtime.GOMAXPROCS(0)
		p := &pass{attempted: waves * waveSize}
		var ch chunker
		var inWaves time.Duration
		var m *fleet.Manager
		var st0, st fleet.Stats

		start := time.Now()
		for w := 0; w < waves; w++ {
			// Untimed: this wave's devices, fresh copies with private
			// randomness, and its manager.
			batch := make([]*core.Party, waveSize)
			lane := make(map[ecqv.ID]int, waveSize)
			for i := range batch {
				b := peers[(w*waveSize+i)%len(peers)].Clone()
				b.Rand = detrand.NewReader(detrand.DeriveSeed(seed, b.ID[:], uint64(w)))
				batch[i], lane[b.ID] = b, i+1
			}
			var err error
			if m, err = fleet.NewManager(gw, core.OptNone, session.DefaultPolicy); err != nil {
				return nil, err
			}
			wave := int32(-1)
			m.SetHandshakeRand(func(peer ecqv.ID, attempt int) io.Reader {
				return detrand.NewReader(detrand.DeriveSeed(seed, peer[:], 0xA11CE, uint64(w), uint64(attempt)))
			})
			if tr != nil {
				m.SetCarrier(func(peer *core.Party) (fleet.Carrier, error) {
					return &spanCarrier{tr: tr, parent: wave, req: w, lane: lane[peer.ID]}, nil
				})
			}
			if w == 0 {
				st0 = m.Stats()
			}

			wave = tr.begin("fleet.wave", -1, w, 0)
			t0 := time.Now()
			errs := m.EstablishAll(batch, workers)
			d := time.Since(t0)
			tr.end(wave)

			failed := 0
			for _, err := range errs {
				if err != nil {
					failed++
				}
			}
			p.failed += failed
			if err := checkf(len(m.Peers()) == waveSize-failed, "wave %d: %d live peers, want %d", w, len(m.Peers()), waveSize-failed); err != nil {
				return nil, err
			}
			// Each wave is a chunk of its own.
			ch.sample(d)
			ch.cut(waveSize, d)
			inWaves += d
		}
		p.wall = time.Since(start)
		st = m.Stats()

		// At --seconds 20 the fastest quarter holds 50 waves; p80 leaves
		// ten beyond it.
		p.perSecond, p.p50, p.tail = timings(ch.chunks, 80)
		p.layer = cacheMetrics(st0, st)
		if tr != nil {
			p.layer["fleet.pool_utilization"] = ratio(tr.total("fleet.exchange").Seconds(), inWaves.Seconds()*float64(workers))
		}
		p.liveHeapMB = liveHeapMB(gw, peers, m)
		return p, nil
	}, nil
}
