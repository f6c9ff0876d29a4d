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
	"repro/internal/ecdsa"
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
		got, err := kc.lookup(b.Cert, a.CAPub, false)
		if err != nil {
			t.Fatal(err)
		}
		if !got.q.Equal(want) {
			t.Fatalf("cached extraction diverged on call %d", i)
		}
	}
	if st := kc.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss / 2 hits", st)
	}

	// A different trust anchor must not alias the cached entry.
	otherCA := a.Curve.ScalarBaseMult(randInt(t))
	if _, err := kc.lookup(b.Cert, otherCA, false); err != nil {
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
	key, err := kc.lookup(b.Cert, a.CAPub, false)
	if err != nil {
		t.Fatal(err)
	}
	p1 := kc.verifier(a.Curve, key)
	p2 := kc.verifier(a.Curve, key)
	if p1 != p2 || key.pub != p1 {
		t.Fatal("verifier not shared across lookups")
	}
	if !p1.Q.Equal(key.q) {
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
				key, err := kc.lookup(b.Cert, a.CAPub, false)
				if err != nil {
					t.Error(err)
					return
				}
				kc.verifier(a.Curve, key)
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

// TestKeyCacheFirstSight pins the life of an STS handshake's peer
// certificate in the cache: the first sight stores a nil entry,
// extracts nothing and counts one miss; the second extracts Q_U into
// the entry; later sights hit it. A re-issued certificate for the same
// subject starts cold.
func TestKeyCacheFirstSight(t *testing.T) {
	net, a, b := newTestPair(t, 405)
	kc := NewKeyCache()
	want, err := ecqv.ExtractPublicKey(b.Cert, a.CAPub)
	if err != nil {
		t.Fatal(err)
	}
	fp := certFingerprint(b.Cert, a.CAPub)
	entry := func() (e *peerEntry, ok bool) {
		kc.mu.Lock()
		defer kc.mu.Unlock()
		e, ok = kc.peers[fp]
		return e, ok
	}

	if key, err := kc.lookup(b.Cert, a.CAPub, true); err != nil || key.peerEntry != nil {
		t.Fatalf("first sight: entry %v, err = %v; want none", key.peerEntry, err)
	}
	if e, ok := entry(); !ok || e != nil || len(kc.peers) != 1 {
		t.Fatalf("first sight: map holds %v (present %v) among %d, want one nil entry", e, ok, len(kc.peers))
	}
	for i, wantStats := range []CacheStats{{Misses: 2}, {Hits: 1, Misses: 2}} {
		key, err := kc.lookup(b.Cert, a.CAPub, true)
		if err != nil || key.peerEntry == nil || !key.q.Equal(want) {
			t.Fatalf("sight %d: entry %v, err = %v; want the extracted key", i+2, key.peerEntry, err)
		}
		if e, _ := entry(); e != key.peerEntry {
			t.Fatalf("sight %d: the map holds %v, not the returned entry", i+2, e)
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
	if key, err := kc.lookup(reissued.Cert, a.CAPub, true); err != nil || key.peerEntry != nil {
		t.Fatalf("re-issued certificate: entry %v, err = %v; want a first sight", key.peerEntry, err)
	}
}

// fillPeers pads kc's map with synthetic first sights up to
// keyCacheMaxEntries.
func fillPeers(kc *KeyCache) {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	for i := 0; len(kc.peers) < keyCacheMaxEntries; i++ {
		kc.peers[sha256.Sum256([]byte(fmt.Sprintf("synthetic-%d", i)))] = nil
	}
}

// TestKeyCacheFirstSightBound: the map resets wholesale once it holds
// keyCacheMaxEntries fingerprints and a new one arrives, so a
// certificate seen before the reset is a first sight again.
func TestKeyCacheFirstSightBound(t *testing.T) {
	net, a, b := newTestPair(t, 406)
	c, err := net.Provision("carol")
	if err != nil {
		t.Fatal(err)
	}
	kc := NewKeyCache()
	if key, _ := kc.lookup(b.Cert, a.CAPub, true); key.peerEntry != nil {
		t.Fatal("first sight of bob not reported")
	}
	fillPeers(kc)
	if key, _ := kc.lookup(c.Cert, a.CAPub, true); key.peerEntry != nil {
		t.Fatal("first sight of carol not reported")
	}
	if n := len(kc.peers); n != 1 {
		t.Fatalf("map holds %d fingerprints after the reset, want 1", n)
	}
	if key, _ := kc.lookup(b.Cert, a.CAPub, true); key.peerEntry != nil {
		t.Fatal("bob, seen only before the reset, was not a first sight again")
	}
}

// TestKeyCacheBoundResetsEveryEntry: one bound covers first sights and
// extracted entries alike. Promoting a first sight in a full map
// reuses its slot and resets nothing; a certificate new to the full
// map resets it, so a certificate extracted before the reset misses
// again: it is extracted anew, or, met by an STS handshake, it is a
// first sight again.
func TestKeyCacheBoundResetsEveryEntry(t *testing.T) {
	net, a, b := newTestPair(t, 409)
	c, err := net.Provision("carol")
	if err != nil {
		t.Fatal(err)
	}
	d, err := net.Provision("dave")
	if err != nil {
		t.Fatal(err)
	}
	kc := NewKeyCache()
	before, err := kc.lookup(b.Cert, a.CAPub, false) // extracted
	if err != nil || before.peerEntry == nil {
		t.Fatalf("bob not extracted: %v", err)
	}
	if key, _ := kc.lookup(c.Cert, a.CAPub, true); key.peerEntry != nil {
		t.Fatal("first sight of carol not reported")
	}
	fillPeers(kc)
	if key, _ := kc.lookup(c.Cert, a.CAPub, true); key.peerEntry == nil {
		t.Fatal("second sight of carol not extracted")
	}
	if n := len(kc.peers); n != keyCacheMaxEntries {
		t.Fatalf("promoting a first sight changed the map size to %d, want %d", n, keyCacheMaxEntries)
	}
	if key, _ := kc.lookup(d.Cert, a.CAPub, true); key.peerEntry != nil {
		t.Fatal("first sight of dave not reported")
	}
	if n := len(kc.peers); n != 1 {
		t.Fatalf("map holds %d entries after the reset, want 1", n)
	}
	st := kc.Stats()
	after, err := kc.lookup(b.Cert, a.CAPub, false)
	if err != nil || after.peerEntry == nil || after.peerEntry == before.peerEntry {
		t.Fatalf("bob, extracted before the reset, was served its old entry (err %v)", err)
	}
	if got := kc.Stats(); got.Misses != st.Misses+1 || got.Hits != st.Hits {
		t.Fatalf("re-extraction after the reset: stats %+v, want one more miss than %+v", got, st)
	}
	if key, _ := kc.lookup(c.Cert, a.CAPub, true); key.peerEntry != nil {
		t.Fatal("carol, extracted only before the reset, was not a first sight again")
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
			key, err := kc.lookup(b.Cert, a.CAPub, true)
			switch {
			case err != nil:
				t.Error(err)
			case key.peerEntry == nil:
				firsts.Add(1)
			case !key.q.Equal(want):
				t.Errorf("sight returned %v, want the extracted key %v", key.q, want)
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

// TestKeyCacheConcurrentSecondSight: goroutines making the second
// sight of one certificate at once, each verifying under the key it
// gets, converge on one entry, and on one comb built once between
// them: the shared level sees a single lookup, which misses and is
// published (run under -race by make race).
func TestKeyCacheConcurrentSecondSight(t *testing.T) {
	_, a, b := newTestPair(t, 410)
	stc := NewSharedTableCache()
	kc := NewKeyCacheWithShared(stc)
	if key, err := kc.lookup(b.Cert, a.CAPub, true); err != nil || key.peerEntry != nil {
		t.Fatalf("first sight: entry %v, err = %v; want none", key.peerEntry, err)
	}
	const n = 8
	entries := make([]*peerEntry, n)
	pubs := make([]*ecdsa.PublicKey, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key, err := kc.lookup(b.Cert, a.CAPub, true)
			if err != nil || key.peerEntry == nil {
				t.Errorf("second sight: entry %v, err = %v; want the extracted key", key.peerEntry, err)
				return
			}
			entries[w], pubs[w] = key.peerEntry, kc.verifier(a.Curve, key)
		}(w)
	}
	wg.Wait()
	kc.mu.Lock()
	entry, size := kc.peers[certFingerprint(b.Cert, a.CAPub)], len(kc.peers)
	kc.mu.Unlock()
	if size != 1 || entry == nil || entry.pub == nil {
		t.Fatalf("map holds %d entries, the certificate's is %v; want one with a comb", size, entry)
	}
	for w := range entries {
		if entries[w] != entry || pubs[w] != entry.pub {
			t.Fatalf("goroutine %d got entry %p and table %p, want %p and %p", w, entries[w], pubs[w], entry, entry.pub)
		}
	}
	if st := stc.Stats(); st != (SharedTableStats{Misses: 1, Entries: 1}) {
		t.Fatalf("shared level %+v, want one lookup that missed and one table", st)
	}
	// One first sight, n lookups and n verifications; the first sight,
	// at least one extraction and the one table build miss.
	if st := kc.Stats(); st.Hits+st.Misses != 2*n+1 || st.Misses < 3 || st.SharedHits != 0 {
		t.Fatalf("stats %+v: want %d lookups, at least 3 of them misses, no shared hit", st, 2*n+1)
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

// warmHandshakeAllocBudget is the heap-allocation ceiling of one
// in-memory STS handshake (OptNone, both engines and Exchange) between
// two parties past their second sight of each other: a rekey whose
// peer keys and combs both sides' KeyCaches serve. It measured 504 on
// linux/amd64 with Go 1.24; the budget leaves about 5% on top.
const warmHandshakeAllocBudget = 529

// TestWarmHandshakeAllocBudget gates a warm rekey's allocations and
// requires every measured handshake to be served by the KeyCache: a
// rekey that extracts or builds a table again, or falls back to
// verifying from the certificate, fails here.
func TestWarmHandshakeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget needs steady-state measurement")
	}
	if !ec.UsesFPBackend() {
		t.Skip("built with -tags ec_purebig: the math/big oracle allocates freely by design")
	}
	if raceEnabled {
		t.Skip("built with -race: sync.Pool drops math/big's scratch at random, so counts vary")
	}
	_, a, b := newTestPair(t, 615)
	handshake := func() {
		init, err := NewInitiator(a, OptNone)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := NewResponder(b, OptNone)
		if err != nil {
			t.Fatal(err)
		}
		if err := Exchange(init, resp, nil); err != nil {
			t.Fatal(err)
		}
	}
	handshake() // first sight: verified from the certificates
	handshake() // second sight: extraction and table builds
	warm := []CacheStats{a.KeyCache().Stats(), b.KeyCache().Stats()}
	const runs = 20
	got := testing.AllocsPerRun(runs, handshake)
	t.Logf("warm handshake: %.0f allocs (budget %d)", got, warmHandshakeAllocBudget)
	if got > warmHandshakeAllocBudget {
		t.Errorf("warm handshake: %.0f allocs, budget %d", got, warmHandshakeAllocBudget)
	}
	// AllocsPerRun adds one warm-up run; each handshake is two hits a
	// side (the peer's entry and its comb).
	for i, p := range []*Party{a, b} {
		st := p.KeyCache().Stats()
		if st.Misses != warm[i].Misses || st.Hits != warm[i].Hits+2*(runs+1) {
			t.Errorf("party %d: stats %+v after %d warm handshakes from %+v, want only hits", i, st, runs+1, warm[i])
		}
	}
}
