package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/session"
)

// TestEstablishAll exercises the worker pool on its own: every peer
// establishes, per-peer failures are reported without aborting the
// batch, and the established fleet carries traffic.
func TestEstablishAll(t *testing.T) {
	parties := provisionBatch(t, 61, 9)
	m, err := NewManager(parties[0], core.OptNone, session.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	peers := parties[1:]
	if err := errors.Join(m.EstablishAll(peers, 4)...); err != nil {
		t.Fatalf("failures: %v", err)
	}
	if got := len(m.Peers()); got != len(peers) {
		t.Fatalf("%d peers live, want %d", got, len(peers))
	}
	if st := m.Stats(); st.Handshakes != len(peers) {
		t.Errorf("handshakes = %d", st.Handshakes)
	}
	for _, p := range peers {
		payload := []byte("fleet:" + p.ID.String())
		rec, err := m.Seal(p.ID, payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Open(p.ID, rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload corrupted")
		}
	}

	// A broken peer reports at its index; the rest still establish.
	m2, _ := NewManager(parties[0], core.OptNone, session.DefaultPolicy)
	mixed := append([]*core.Party{{ID: ecqv.NewID("hollow")}}, peers...)
	errs := m2.EstablishAll(mixed, 0)
	if len(errs) != len(mixed) {
		t.Fatalf("%d error slots for %d peers", len(errs), len(mixed))
	}
	if errs[0] == nil {
		t.Error("unprovisioned peer not reported")
	}
	for i, err := range errs[1:] {
		if err != nil {
			t.Errorf("healthy peer %d failed: %v", i+1, err)
		}
	}
	if got := len(m2.Peers()); got != len(peers) {
		t.Errorf("%d peers live after partial failure, want %d", got, len(peers))
	}
}

// provisionBatch provisions a gateway plus peers through the batched
// path, so the stress tests also cover concurrent enrollment.
func provisionBatch(t *testing.T, seed int64, n int) []*core.Party {
	t.Helper()
	net, err := core.NewNetwork(ec.P256(), newDetRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, n)
	names[0] = "gateway"
	for i := 1; i < n; i++ {
		names[i] = fmt.Sprintf("peer-%02d", i)
	}
	parties, err := net.ProvisionBatch(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	return parties
}

// TestManagerConcurrentStress hammers one sharded Manager from many
// goroutines at once — concurrent EstablishAll over the whole fleet,
// per-peer traffic under a policy tight enough to force transparent
// rekeys mid-stream, connect/disconnect churn, and constant
// Peers/Stats/PeerChannel readers. The assertion is the race detector
// plus: traffic on a peer that nobody else re-keys must round-trip
// perfectly, and traffic racing a re-establishment may fail only with
// the session-layer errors that key replacement legitimately causes.
func TestManagerConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const (
		quietPeers = 4 // traffic only; never externally re-keyed
		noisyPeers = 4 // traffic racing EstablishAll re-keys
		records    = 8
	)
	parties := provisionBatch(t, 62, 1+quietPeers+noisyPeers+1)
	gw := parties[0]
	quiet := parties[1 : 1+quietPeers]
	noisy := parties[1+quietPeers : 1+quietPeers+noisyPeers]
	churn := parties[len(parties)-1]

	// MaxRecords=3 forces a transparent rekey every third record.
	m, err := NewManager(gw, core.OptNone, session.Policy{MaxRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(m.EstablishAll(parties[1:], 0)...); err != nil {
		t.Fatalf("initial establishment: %v", err)
	}

	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Re-establish the noisy half of the fleet, twice, concurrently
	// with their traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 2; round++ {
			if err := errors.Join(m.EstablishAll(noisy, 2)...); err != nil {
				fail("EstablishAll round %d: %v", round, err)
			}
		}
	}()

	// Quiet peers: nobody else touches their sessions, so every
	// record must round-trip even across transparent rekeys.
	for _, p := range quiet {
		wg.Add(1)
		go func(p *core.Party) {
			defer wg.Done()
			for i := 0; i < records; i++ {
				payload := []byte(fmt.Sprintf("%s #%d", p.ID, i))
				rec, err := m.Seal(p.ID, payload)
				if err != nil {
					fail("%s seal %d: %v", p.ID, i, err)
					return
				}
				got, err := m.Open(p.ID, rec)
				if err != nil {
					fail("%s open %d: %v", p.ID, i, err)
					return
				}
				if !bytes.Equal(got, payload) {
					fail("%s record %d corrupted", p.ID, i)
				}
			}
		}(p)
	}

	// Noisy peers: a concurrent EstablishAll may swap the session
	// between Seal and Open, so an auth failure on the stale record is
	// legitimate — anything else is a bug.
	for _, p := range noisy {
		wg.Add(1)
		go func(p *core.Party) {
			defer wg.Done()
			for i := 0; i < records; i++ {
				rec, err := m.Seal(p.ID, []byte{byte(i)})
				if err != nil {
					fail("%s seal %d: %v", p.ID, i, err)
					return
				}
				if _, err := m.Open(p.ID, rec); err != nil &&
					!errors.Is(err, session.ErrAuth) && !errors.Is(err, session.ErrReplay) {
					fail("%s open %d: %v", p.ID, i, err)
					return
				}
			}
		}(p)
	}

	// Churn: connect/disconnect one peer in a loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := m.Connect(churn); err != nil {
				fail("churn connect %d: %v", i, err)
				return
			}
			m.Disconnect(churn.ID)
		}
	}()

	// Readers: snapshot the fleet constantly while all of the above
	// runs.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if n := len(m.Peers()); n < quietPeers+noisyPeers {
					fail("peer listing dropped to %d", n)
					return
				}
				_ = m.Stats()
				if _, err := m.PeerChannel(quiet[0].ID); err != nil {
					fail("PeerChannel: %v", err)
					return
				}
			}
		}()
	}

	wg.Wait()

	st := m.Stats()
	if st.Rekeys == 0 {
		t.Error("policy never tripped a transparent rekey")
	}
	wantRecords := (quietPeers + noisyPeers) * records
	if st.Records != wantRecords {
		t.Errorf("records = %d, want %d", st.Records, wantRecords)
	}
	// initial fleet + 2 EstablishAll rounds + churn + rekeys
	wantHandshakes := (quietPeers + noisyPeers + 1) + 2*noisyPeers + 4 + st.Rekeys
	if st.Handshakes != wantHandshakes {
		t.Errorf("handshakes = %d, want %d", st.Handshakes, wantHandshakes)
	}
}

// TestSharedTableStressConsistency runs concurrent EstablishAll waves
// plus rekey-forcing traffic and then reconciles the fleet-global
// SharedTableCache counters against the per-party key caches. The
// global cache is process-wide, so everything is asserted on deltas
// from a baseline snapshot. Invariants checked:
//
//   - every shared hit recorded globally is attributed to exactly one
//     party's SharedHits counter (Σ ΔSharedHits == ΔHits);
//   - sharing actually happened: in a wave all responders verify the
//     same gateway key, so one build serves the rest;
//   - Manager.Stats reports the same global counters;
//   - the whole dance is race-clean (this test runs under `make race`).
func TestSharedTableStressConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const peers = 8
	parties := provisionBatch(t, 63, 1+peers)
	gw := parties[0]

	base := core.SharedTables().Stats()
	baseShared := make([]int, len(parties))
	for i, p := range parties {
		baseShared[i] = p.KeyCache().Stats().SharedHits
	}

	m, err := NewManager(gw, core.OptNone, session.Policy{MaxRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(m.EstablishAll(parties[1:], 4)...); err != nil {
		t.Fatalf("initial establishment: %v", err)
	}

	var wg sync.WaitGroup
	// Re-establishment churn: two concurrent wave rounds over halves of
	// the fleet.
	for _, half := range [][]*core.Party{parties[1 : 1+peers/2], parties[1+peers/2:]} {
		wg.Add(1)
		go func(half []*core.Party) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				if err := errors.Join(m.EstablishAll(half, 2)...); err != nil {
					t.Errorf("re-establish round %d: %v", round, err)
					return
				}
			}
		}(half)
	}
	// Rekey churn: MaxRecords=2 trips a transparent rekey (a full STS
	// run, with its verifications) every other record.
	for _, p := range parties[1:] {
		wg.Add(1)
		go func(p *core.Party) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				rec, err := m.Seal(p.ID, []byte{byte(i)})
				if err != nil {
					t.Errorf("%s seal %d: %v", p.ID, i, err)
					return
				}
				if _, err := m.Open(p.ID, rec); err != nil &&
					!errors.Is(err, session.ErrAuth) && !errors.Is(err, session.ErrReplay) {
					t.Errorf("%s open %d: %v", p.ID, i, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	global := core.SharedTables().Stats()
	dHits := global.Hits - base.Hits
	dMisses := global.Misses - base.Misses
	sumSharedHits := 0
	for i, p := range parties {
		st := p.KeyCache().Stats()
		sumSharedHits += st.SharedHits - baseShared[i]
		if st.SharedHits > st.Misses {
			t.Errorf("party %d: SharedHits %d exceeds Misses %d", i, st.SharedHits, st.Misses)
		}
	}
	if sumSharedHits != dHits {
		t.Errorf("shared hits don't reconcile: parties saw %d, global counted %d", sumSharedHits, dHits)
	}
	if dHits == 0 {
		t.Error("no fleet-wide table sharing in an EstablishAll wave")
	}
	if dMisses == 0 {
		t.Error("no shared-level misses: someone must have built the tables")
	}
	if got := m.Stats().SharedTables; got != core.SharedTables().Stats() {
		t.Errorf("Manager.Stats().SharedTables = %+v diverges from global %+v",
			got, core.SharedTables().Stats())
	}
}
