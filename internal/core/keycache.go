package core

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
)

// KeyCache memoizes the per-peer public-key work of repeated session
// establishments: the ECQV public-key extraction (one ScalarMult + Add
// per certificate) and the precomputed ec.MultTable (a signed comb)
// that ECDSA verification multiplies against. A device that re-keys
// against the same static peer — the fleet steady state — pays the
// extraction and the table build once per peer instead of once per
// handshake.
//
// It holds one entry per peer certificate, keyed by the certificate's
// fingerprint together with the CA key, so a re-issued certificate or
// a different trust anchor never aliases a stale entry. What an STS
// handshake's peer certificate leaves there:
//
//   - First sight: a nil entry, which costs a map slot and nothing
//     else. The engine verifies straight from the certificate
//     (ecdsa.VerifyImplicit), with no extraction, no table and no
//     SharedTableCache or wave-batcher traffic, because in STS Q_U
//     serves exactly one verification. It counts as one miss.
//   - Second sight: Q_U is extracted into the entry, and the
//     verification that follows attaches Q_U's comb, adopted from the
//     shared level or built and published there; each counts one
//     miss.
//   - Later sights hit the entry and its comb.
//
// S-ECDSA and PORAMB need Q_U itself, so their first sight already
// extracts (and S-ECDSA's verification attaches the comb).
//
// The cache holds derived public data only (no secrets) and is safe
// for concurrent use: concurrent fillers converge on one entry, and
// one table build per entry.
//
// Note the hardware timing model is unaffected: the suite records the
// same primitive counts whether or not the host-side cache hits, and
// whether a key was extracted or verified from its certificate,
// because the modelled embedded device of the paper performs the full
// computation.
type KeyCache struct {
	mu sync.Mutex
	// peers maps a certificate fingerprint to its entry, nil after a
	// first sight.
	peers map[[32]byte]*peerEntry

	// shared is the second cache level for verifier tables: an entry
	// without a comb consults it before building, so fleet-static keys
	// (CA, gateway, wave initiator) are built once per process instead
	// of once per party. Never nil.
	shared *SharedTableCache

	// wave batches this party's concurrently in-flight verifications
	// into ecdsa.VerifyBatch rounds.
	wave waveVerifier

	hits       atomic.Uint64
	misses     atomic.Uint64
	sharedHits atomic.Uint64
}

// peerEntry is what a KeyCache holds for one certificate past its
// first sight. It is immutable once published, except that once
// attaches pub.
type peerEntry struct {
	q    ec.Point // Q_U, extracted
	once sync.Once
	pub  *ecdsa.PublicKey // Q_U with its comb; shared, never mutated
}

// peerKey is a peer's public key as KeyCache.lookup resolved it: the
// cache entry holding Q_U, or, on an STS first sight, no entry and the
// certificate Q_U stays implicit in (Q_U = H(Cert)·P_U + Q_CA, never
// computed), for suite.verify to check a signature straight from it.
type peerKey struct {
	*peerEntry          // nil on a first sight
	fp         [32]byte // certFingerprint(cert, caPub)
	cert       *ecqv.Certificate
	caPub      ec.Point
}

// keyCacheMaxEntries bounds the map; a certificate new to a full map
// resets it (simplest possible eviction), first sights and extracted
// entries together. A gateway talking to a whole fleet stays far below
// the bound; only certificate-churn storms hit it.
const keyCacheMaxEntries = 4096

// NewKeyCache returns an empty cache backed by the process-global
// SharedTables.
func NewKeyCache() *KeyCache { return NewKeyCacheWithShared(sharedTables) }

// NewKeyCacheWithShared returns an empty cache backed by an explicit
// shared table level (tests isolate sharing behaviour this way). A nil
// stc gets a private, empty level.
func NewKeyCacheWithShared(stc *SharedTableCache) *KeyCache {
	if stc == nil {
		stc = NewSharedTableCache()
	}
	return &KeyCache{peers: make(map[[32]byte]*peerEntry), shared: stc}
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Hits   int // lookups served from the local cache
	Misses int // lookups that had to fill (from the shared level or a build)

	// SharedHits counts the subset of Misses that adopted a table from
	// the fleet-global SharedTableCache instead of building one.
	SharedHits int

	// WaveBatches/WaveItems account the group-commit verification:
	// WaveItems verifications served through WaveBatches VerifyBatch
	// rounds. WaveItems − WaveBatches is the number of verifications
	// that shared a round, and with it the round's scalar inversion.
	WaveBatches int
	WaveItems   int
}

// Stats returns the hit/miss counters.
func (kc *KeyCache) Stats() CacheStats {
	return CacheStats{
		Hits:        int(kc.hits.Load()),
		Misses:      int(kc.misses.Load()),
		SharedHits:  int(kc.sharedHits.Load()),
		WaveBatches: int(kc.wave.batches.Load()),
		WaveItems:   int(kc.wave.items.Load()),
	}
}

// certFingerprint binds a cache key to the exact certificate bytes and
// the CA public key used for extraction.
func certFingerprint(cert *ecqv.Certificate, caPub ec.Point) [32]byte {
	h := sha256.New()
	h.Write(cert.Encode())
	h.Write(cert.Curve.EncodeCompressed(caPub))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// lookup resolves a peer certificate to its entry, performing (or
// recalling) the paper's equation (1), Q_U = H(Cert_U)·P_U + Q_CA. An
// entry is a hit. Otherwise Q_U is extracted into a new entry, one
// miss — except on the first sight of a certificate whose Q_U serves
// one verification only (implicit, the STS case): that stores a nil
// entry, counts one miss and returns a key with no entry, for the
// caller to verify straight from the certificate.
func (kc *KeyCache) lookup(cert *ecqv.Certificate, caPub ec.Point, implicit bool) (peerKey, error) {
	key := peerKey{fp: certFingerprint(cert, caPub), cert: cert, caPub: caPub}
	kc.mu.Lock()
	e, seen := kc.peers[key.fp]
	first := implicit && !seen
	if first {
		kc.put(key.fp, nil)
	}
	kc.mu.Unlock()
	if e != nil {
		kc.hits.Add(1)
		key.peerEntry = e
		return key, nil
	}
	kc.misses.Add(1)
	if first {
		return key, nil
	}
	q, err := ecqv.ExtractPublicKey(cert, caPub)
	if err != nil {
		return peerKey{}, err
	}
	kc.mu.Lock()
	// Keep the first stored entry so concurrent fillers converge on it.
	if key.peerEntry = kc.peers[key.fp]; key.peerEntry == nil {
		key.peerEntry = &peerEntry{q: q}
		kc.put(key.fp, key.peerEntry)
	}
	kc.mu.Unlock()
	return key, nil
}

// put stores e under fp, resetting the map first if it is full and fp
// is new to it. The caller holds kc.mu.
func (kc *KeyCache) put(fp [32]byte, e *peerEntry) {
	if _, ok := kc.peers[fp]; !ok && len(kc.peers) >= keyCacheMaxEntries {
		kc.peers = make(map[[32]byte]*peerEntry)
	}
	kc.peers[fp] = e
}

// verifier returns the ECDSA verification key of an extracted peer
// key with its ec.MultTable precomputed. The first call on an entry
// attaches the table, adopted from the shared level or built and
// published there, and counts one miss; every other call, including
// one that waited for a concurrent first call, is a hit. The returned
// key is shared and must be treated as immutable.
func (kc *KeyCache) verifier(c *ec.Curve, key peerKey) *ecdsa.PublicKey {
	e := key.peerEntry
	filled := false
	e.once.Do(func() {
		filled = true
		kc.misses.Add(1)
		// Second level: another party may have built this table already
		// (the CA and wave-initiator keys are identical fleet-wide).
		if shared, ok := kc.shared.Lookup(key.fp); ok {
			kc.sharedHits.Add(1)
			e.pub = shared
			return
		}
		// Publish for the rest of the fleet; adopt the winner if another
		// builder got there first.
		e.pub = kc.shared.Publish(key.fp, (&ecdsa.PublicKey{Curve: c, Q: e.q}).Precompute())
	})
	if !filled {
		kc.hits.Add(1)
	}
	return e.pub
}
