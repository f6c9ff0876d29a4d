package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ec"
	"repro/internal/ecqv"
)

func newTestPair(t *testing.T, seed int64) (*Network, *Party, *Party) {
	t.Helper()
	net, err := NewNetwork(ec.P256(), newDetRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := net.Pair("alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	return net, a, b
}

func TestKeyCacheExtract(t *testing.T) {
	_, a, b := newTestPair(t, 400)
	kc := NewKeyCache()

	want, err := ecqv.ExtractPublicKey(b.Cert, a.CAPub)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := kc.ExtractPublicKey(b.Cert, a.CAPub)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("cached extraction diverged on call %d", i)
		}
	}
	if st := kc.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss / 2 hits", st)
	}

	// A different trust anchor must not alias the cached entry.
	otherCA := a.Curve.ScalarBaseMult(randInt(t))
	if _, err := kc.ExtractPublicKey(b.Cert, otherCA); err != nil {
		t.Fatal(err)
	}
	if st := kc.Stats(); st.Misses != 2 {
		t.Fatalf("different CA key served from cache: %+v", st)
	}
}

func randInt(t *testing.T) *big.Int {
	t.Helper()
	k, err := ec.P256().RandomScalar(newDetRand(77))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyCacheVerifierShared(t *testing.T) {
	_, a, b := newTestPair(t, 401)
	kc := NewKeyCache()
	q, err := ecqv.ExtractPublicKey(b.Cert, a.CAPub)
	if err != nil {
		t.Fatal(err)
	}
	p1 := kc.Verifier(a.Curve, q)
	p2 := kc.Verifier(a.Curve, q)
	if p1 != p2 {
		t.Fatal("verifier not shared across lookups")
	}
	if !p1.Q.Equal(q) {
		t.Fatal("verifier wraps the wrong point")
	}
}

func TestKeyCacheConcurrent(t *testing.T) {
	_, a, b := newTestPair(t, 402)
	kc := NewKeyCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := kc.ExtractPublicKey(b.Cert, a.CAPub); err != nil {
					t.Error(err)
					return
				}
				kc.Verifier(a.Curve, a.CAPub)
			}
		}()
	}
	wg.Wait()
	st := kc.Stats()
	if st.Hits+st.Misses != 400 {
		t.Fatalf("stats don't add up: %+v", st)
	}
}

// TestPartyCacheAcrossHandshakes proves that repeated protocol runs
// between the same parties hit the per-party cache — the fleet rekey
// steady state — and still agree on session keys.
func TestPartyCacheAcrossHandshakes(t *testing.T) {
	_, a, b := newTestPair(t, 403)
	p := NewSTS(OptII)
	for i := 0; i < 3; i++ {
		res, err := p.Run(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := res.SessionKey(); err != nil {
			t.Fatal(err)
		}
	}
	if st := a.KeyCache().Stats(); st.Hits == 0 {
		t.Fatalf("initiator cache never hit across repeated handshakes: %+v", st)
	}
	if st := b.KeyCache().Stats(); st.Hits == 0 {
		t.Fatalf("responder cache never hit across repeated handshakes: %+v", st)
	}
}

// TestCacheDoesNotPerturbTrace proves the hardware-model input is
// identical whether the host cache is cold or warm: the modelled
// device always executes the full computation. The three runs take
// the three paths: a first sight verifies from the certificate, the
// second extracts and builds, the third hits.
func TestCacheDoesNotPerturbTrace(t *testing.T) {
	p := NewSTS(OptNone)
	_, a1, b1 := newTestPair(t, 404)
	cold, err := p.Run(a1, b1)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []string{"second", "warm"} {
		again, err := p.Run(a1, b1) // same parties
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold.Trace.Events, again.Trace.Events) {
			t.Fatalf("trace event streams differ between the cold and the %s run", run)
		}
	}
}

// TestKeyCacheFirstSight pins the first-sight set behind an STS
// handshake's peer key: the first sight of a certificate extracts
// nothing and counts one miss; the second extracts, caches and takes
// the certificate out of the set; later sights hit. A re-issued
// certificate for the same subject starts cold.
func TestKeyCacheFirstSight(t *testing.T) {
	net, a, b := newTestPair(t, 405)
	kc := NewKeyCache()
	want, err := ecqv.ExtractPublicKey(b.Cert, a.CAPub)
	if err != nil {
		t.Fatal(err)
	}
	fp := certFingerprint(b.Cert, a.CAPub)
	inSet := func() bool {
		kc.mu.RLock()
		defer kc.mu.RUnlock()
		_, ok := kc.seen[fp]
		return ok
	}

	if _, first, err := kc.sight(b.Cert, a.CAPub); err != nil || !first {
		t.Fatalf("first sight: first = %v, err = %v", first, err)
	}
	if !inSet() || len(kc.extracted) != 0 {
		t.Fatalf("first sight: in set %v, %d extracted, want true and 0", inSet(), len(kc.extracted))
	}
	for i, wantStats := range []CacheStats{{Misses: 2}, {Hits: 1, Misses: 2}} {
		q, first, err := kc.sight(b.Cert, a.CAPub)
		if err != nil || first || !q.Equal(want) {
			t.Fatalf("sight %d: q = %v, first = %v, err = %v; want the extracted key", i+2, q, first, err)
		}
		if inSet() {
			t.Fatalf("sight %d: the promoted certificate is still in the first-sight set", i+2)
		}
		if st := kc.Stats(); st != wantStats {
			t.Fatalf("sight %d: stats %+v, want %+v", i+2, st, wantStats)
		}
	}

	reissued, err := net.Provision("bob")
	if err != nil {
		t.Fatal(err)
	}
	if reissued.Cert.Equal(b.Cert) {
		t.Fatal("re-provisioning did not issue a new certificate")
	}
	if _, first, err := kc.sight(reissued.Cert, a.CAPub); err != nil || !first {
		t.Fatalf("re-issued certificate: first = %v, err = %v; want a first sight", first, err)
	}
}

// TestKeyCacheFirstSightBound: the first-sight set resets wholesale
// once it holds keyCacheMaxEntries fingerprints, like the cache's
// maps, so a certificate seen before the reset is a first sight again.
func TestKeyCacheFirstSightBound(t *testing.T) {
	net, a, b := newTestPair(t, 406)
	c, err := net.Provision("carol")
	if err != nil {
		t.Fatal(err)
	}
	kc := NewKeyCache()
	if _, first, _ := kc.sight(b.Cert, a.CAPub); !first {
		t.Fatal("first sight of bob not reported")
	}
	kc.mu.Lock()
	for i := 0; len(kc.seen) < keyCacheMaxEntries; i++ {
		kc.seen[sha256.Sum256([]byte(fmt.Sprintf("synthetic-%d", i)))] = struct{}{}
	}
	kc.mu.Unlock()
	if _, first, _ := kc.sight(c.Cert, a.CAPub); !first {
		t.Fatal("first sight of carol not reported")
	}
	if n := len(kc.seen); n != 1 {
		t.Fatalf("first-sight set holds %d fingerprints after the reset, want 1", n)
	}
	if _, first, _ := kc.sight(b.Cert, a.CAPub); !first {
		t.Fatal("bob, seen only before the reset, was not a first sight again")
	}
}

// TestKeyCacheConcurrentFirstSight: goroutines meeting one
// certificate at once see exactly one first sight between them, and
// every other sight returns the extracted key (run under -race by
// make race).
func TestKeyCacheConcurrentFirstSight(t *testing.T) {
	_, a, b := newTestPair(t, 407)
	want, err := ecqv.ExtractPublicKey(b.Cert, a.CAPub)
	if err != nil {
		t.Fatal(err)
	}
	kc := NewKeyCache()
	const n = 8
	var firsts atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, first, err := kc.sight(b.Cert, a.CAPub)
			switch {
			case err != nil:
				t.Error(err)
			case first:
				firsts.Add(1)
			case !q.Equal(want):
				t.Errorf("sight returned %v, want the extracted key %v", q, want)
			}
		}()
	}
	wg.Wait()
	if got := firsts.Load(); got != 1 {
		t.Fatalf("%d first sights among %d concurrent ones, want 1", got, n)
	}
	if st := kc.Stats(); st.Hits+st.Misses != n {
		t.Fatalf("stats %+v do not add up to %d sights", st, n)
	}
}

// TestFirstSightIdentityKeyFailsAuth: a peer certificate whose
// extracted key would be the identity — here because the verifier's
// CA key is −H(Cert_A)·P_A — fails the handshake with
// ErrHandshakeAuth on the first sight, where no extraction runs, and
// on the second, where extraction refuses it.
func TestFirstSightIdentityKeyFailsAuth(t *testing.T) {
	_, a, b := newTestPair(t, 408)
	c := a.Curve
	b = b.Clone()
	b.CAPub = c.Neg(c.ScalarMult(a.Cert.PubRecon, a.Cert.HashToScalar()))
	for sight := 1; sight <= 2; sight++ {
		_, err := NewSTS(OptII).Run(a, b)
		if !errors.Is(err, ErrHandshakeAuth) {
			t.Fatalf("sight %d: err = %v, want ErrHandshakeAuth", sight, err)
		}
	}
}
