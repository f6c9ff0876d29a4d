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

// TestHandshakeWaveAccounting pins the two verification paths of an
// STS handshake. On fresh caches each side meets the other's
// certificate for the first time and verifies straight from it: no
// SharedTableCache lookup and no cached verifier, one miss. A second
// handshake between the same parties extracts, so each side looks its
// verifier table up at the shared level, caches it and verifies
// against it.
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
		{CacheStats{Misses: 3}, 2, 1},
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
