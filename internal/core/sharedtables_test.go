package core

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
)

// extractedKey returns the key an extraction of cert leaves, built
// outside any cache so that a test's counters see its table alone.
func extractedKey(t *testing.T, cert *ecqv.Certificate, caPub ec.Point) peerKey {
	t.Helper()
	q, err := ecqv.ExtractPublicKey(cert, caPub)
	if err != nil {
		t.Fatal(err)
	}
	return peerKey{peerEntry: &peerEntry{q: q}, fp: certFingerprint(cert, caPub), cert: cert, caPub: caPub}
}

// TestSharedTableCacheDedup: two parties' key caches backed by one
// shared level build a given certificate's verifier table exactly
// once — the second party adopts the first's instance.
func TestSharedTableCacheDedup(t *testing.T) {
	_, a, b := newTestPair(t, 613)
	stc := NewSharedTableCache()
	kc1 := NewKeyCacheWithShared(stc)
	kc2 := NewKeyCacheWithShared(stc)
	k1 := extractedKey(t, b.Cert, a.CAPub)
	k2 := extractedKey(t, b.Cert, a.CAPub)

	p1 := kc1.verifier(a.Curve, k1)
	p2 := kc2.verifier(a.Curve, k2)
	if p1 != p2 {
		t.Fatal("parties did not converge on one shared table instance")
	}
	if st := kc1.Stats(); st.Misses != 1 || st.SharedHits != 0 {
		t.Fatalf("builder stats = %+v, want 1 miss / 0 shared hits", st)
	}
	if st := kc2.Stats(); st.Misses != 1 || st.SharedHits != 1 {
		t.Fatalf("adopter stats = %+v, want 1 miss / 1 shared hit", st)
	}
	if st := stc.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("shared stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	// Steady state: both serve locally, shared level untouched.
	kc1.verifier(a.Curve, k1)
	kc2.verifier(a.Curve, k2)
	if st := stc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("local hits leaked into the shared level: %+v", st)
	}
}

// TestSharedTableCacheConcurrentPublish: racing builders of the same
// fingerprint converge on a single instance.
func TestSharedTableCacheConcurrentPublish(t *testing.T) {
	_, a, b := newTestPair(t, 614)
	key := extractedKey(t, b.Cert, a.CAPub)
	stc := NewSharedTableCache()

	results := make([]*ecdsa.PublicKey, 16)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pub := (&ecdsa.PublicKey{Curve: a.Curve, Q: key.q}).Precompute()
			results[i] = stc.Publish(key.fp, pub)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("racing publishers did not converge on one instance")
		}
	}
	if st := stc.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestSharedTableCacheBound: the copy-on-write map resets rather than
// growing without bound.
func TestSharedTableCacheBound(t *testing.T) {
	stc := NewSharedTableCache()
	c := ec.P256()
	pub := (&ecdsa.PublicKey{Curve: c, Q: c.Generator()}).Precompute()
	for i := 0; i < sharedTableMaxEntries+10; i++ {
		var fp [32]byte
		h := sha256.Sum256([]byte(fmt.Sprintf("synthetic-%d", i)))
		copy(fp[:], h[:])
		stc.Publish(fp, pub)
	}
	if st := stc.Stats(); st.Entries > sharedTableMaxEntries+1 {
		t.Fatalf("cache grew past its bound: %d entries", st.Entries)
	}
}

// waveFixture provisions n peers and returns their cached verifiers
// from one key cache, with a signed digest per peer.
func waveFixture(t *testing.T, n int) (*KeyCache, []*ecdsa.PublicKey, [][]byte, []ecdsa.Signature) {
	t.Helper()
	net, err := NewNetwork(ec.P256(), newDetRand(611))
	if err != nil {
		t.Fatal(err)
	}
	kc := NewKeyCacheWithShared(NewSharedTableCache())
	pubs := make([]*ecdsa.PublicKey, n)
	digests := make([][]byte, n)
	sigs := make([]ecdsa.Signature, n)
	for i := 0; i < n; i++ {
		p, err := net.Provision(fmt.Sprintf("peer-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		d := sha256.Sum256([]byte(fmt.Sprintf("wave msg %d", i)))
		sig, err := (&ecdsa.PrivateKey{Curve: p.Curve, D: p.Priv}).SignDigest(d[:])
		if err != nil {
			t.Fatal(err)
		}
		key, err := kc.lookup(p.Cert, p.CAPub, false)
		if err != nil {
			t.Fatal(err)
		}
		pubs[i] = kc.verifier(p.Curve, key)
		digests[i] = d[:]
		sigs[i] = sig
	}
	return kc, pubs, digests, sigs
}

// TestWaveVerifierSerial: a lone verification is a batch of one with
// the plain-Verify verdict, and the counters account it.
func TestWaveVerifierSerial(t *testing.T) {
	kc, pubs, digests, sigs := waveFixture(t, 2)
	if !kc.wave.verify(pubs[0], digests[0], sigs[0]) {
		t.Fatal("valid signature rejected")
	}
	if kc.wave.verify(pubs[0], digests[0], sigs[1]) {
		t.Fatal("mismatched signature accepted")
	}
	st := kc.Stats()
	if st.WaveBatches != 2 || st.WaveItems != 2 {
		t.Fatalf("wave stats = %+v, want 2 batches / 2 items", st)
	}
}

// TestWaveVerifierConcurrent: many goroutines verifying through one
// cache all get their individual verdicts (mixed valid and corrupted),
// and the counters reconcile: items == verifications, batches ≤ items.
func TestWaveVerifierConcurrent(t *testing.T) {
	const n = 8
	const rounds = 25
	kc, pubs, digests, sigs := waveFixture(t, n)

	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Even rounds: valid pair. Odd rounds: signature from the
				// next key — must fail.
				if r%2 == 0 {
					if !kc.wave.verify(pubs[g], digests[g], sigs[g]) {
						t.Errorf("goroutine %d round %d: valid rejected", g, r)
						return
					}
				} else {
					if kc.wave.verify(pubs[g], digests[g], sigs[(g+1)%n]) {
						t.Errorf("goroutine %d round %d: invalid accepted", g, r)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := kc.Stats()
	if st.WaveItems != n*rounds {
		t.Fatalf("WaveItems = %d, want %d", st.WaveItems, n*rounds)
	}
	if st.WaveBatches == 0 || st.WaveBatches > st.WaveItems {
		t.Fatalf("WaveBatches = %d out of range (items %d)", st.WaveBatches, st.WaveItems)
	}
}

// TestHandshakeWaveAccounting pins the two verification paths of an
// STS handshake. On fresh caches each side meets the other's
// certificate for the first time and verifies straight from it: no
// wave batch, no SharedTableCache lookup and no cached verifier, one
// miss. A second handshake between the same parties extracts, so each
// side looks its verifier table up at the shared level, caches it and
// verifies through the wave batcher.
func TestHandshakeWaveAccounting(t *testing.T) {
	_, a, b := newTestPair(t, 612)
	stc := NewSharedTableCache()
	parties := []*Party{a, b}
	for _, p := range parties {
		p.cache.Store(NewKeyCacheWithShared(stc))
	}
	for run, want := range []struct {
		stats     CacheStats
		lookups   int // SharedTableCache lookups by both sides
		verifiers int // verifier tables cached per side
	}{
		{CacheStats{Misses: 1}, 0, 0},
		{CacheStats{Misses: 3, WaveBatches: 1, WaveItems: 1}, 2, 1},
	} {
		if _, err := NewSTS(OptII).Run(a, b); err != nil {
			t.Fatal(err)
		}
		for i, p := range parties {
			kc := p.KeyCache()
			verifiers := 0
			kc.mu.Lock()
			for _, e := range kc.peers {
				if e != nil && e.pub != nil {
					verifiers++
				}
			}
			kc.mu.Unlock()
			if st := kc.Stats(); st != want.stats || verifiers != want.verifiers {
				t.Errorf("handshake %d, party %d: stats %+v with %d cached verifiers, want %+v with %d",
					run+1, i, st, verifiers, want.stats, want.verifiers)
			}
		}
		if st := stc.Stats(); st.Hits+st.Misses != want.lookups {
			t.Errorf("handshake %d: %d shared-level lookups, want %d", run+1, st.Hits+st.Misses, want.lookups)
		}
	}
}
