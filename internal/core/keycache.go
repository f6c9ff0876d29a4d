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
// What is cached when, for an STS handshake's peer certificate:
//
//   - First sight: nothing but the fingerprint, in a bounded set. The
//     engine verifies straight from the certificate
//     (ecdsa.VerifyImplicit), with no extraction, no table and no
//     SharedTableCache or wave-batcher traffic, because in STS Q_U
//     serves exactly one verification. It counts as one miss.
//   - Second sight: the certificate leaves the set, Q_U is extracted
//     and cached, and Verifier builds (or adopts from the shared
//     level) and caches its table, each counting one miss.
//   - Later sights hit both maps.
//
// ExtractPublicKey, used by S-ECDSA, SCIANC and PORAMB because they
// need Q_U itself, always extracts and caches on a miss.
//
// The cache holds derived public data only (no secrets) and is safe
// for concurrent use. Entries are keyed by the certificate's
// fingerprint together with the CA key, so a re-issued certificate or
// a different trust anchor never aliases a stale entry.
//
// Note the hardware timing model is unaffected: the suite records the
// same primitive counts whether or not the host-side cache hits, and
// whether a key was extracted or verified from its certificate,
// because the modelled embedded device of the paper performs the full
// computation.
type KeyCache struct {
	mu        sync.RWMutex
	extracted map[[32]byte]ec.Point
	verifiers map[[32]byte]*ecdsa.PublicKey

	// seen holds the fingerprints of certificates met once by an STS
	// handshake and verified straight from the certificate; none of
	// them is in extracted. It is nil while empty, so that a party
	// whose peers have all been promoted keeps no buckets for it.
	seen map[[32]byte]struct{}

	// shared is the second cache level for verifier tables: a local
	// miss consults it before building, so fleet-static keys (CA,
	// gateway, wave initiator) are built once per process instead of
	// once per party. Never nil.
	shared *SharedTableCache

	// wave batches this party's concurrently in-flight verifications
	// into ecdsa.VerifyBatch rounds.
	wave waveVerifier

	hits       atomic.Uint64
	misses     atomic.Uint64
	sharedHits atomic.Uint64
}

// keyCacheMaxEntries bounds each map and the first-sight set; beyond
// it the map is reset (simplest possible eviction). A gateway talking
// to a whole fleet stays far below the bound; only certificate-churn
// storms hit it.
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
	return &KeyCache{
		extracted: make(map[[32]byte]ec.Point),
		verifiers: make(map[[32]byte]*ecdsa.PublicKey),
		shared:    stc,
	}
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

// verifyWave routes one verification through the group-commit batcher.
func (kc *KeyCache) verifyWave(pub *ecdsa.PublicKey, digest []byte, sig ecdsa.Signature) bool {
	return kc.wave.verify(pub, digest, sig)
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

// pointFingerprint keys a verifier table by curve and point.
func pointFingerprint(c *ec.Curve, q ec.Point) [32]byte {
	h := sha256.New()
	h.Write([]byte(c.Name))
	h.Write(c.EncodeCompressed(q))
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ExtractPublicKey performs (or recalls) the paper's equation (1):
// Q_U = H(Cert_U)·P_U + Q_CA.
func (kc *KeyCache) ExtractPublicKey(cert *ecqv.Certificate, caPub ec.Point) (ec.Point, error) {
	fp := certFingerprint(cert, caPub)
	kc.mu.RLock()
	q, ok := kc.extracted[fp]
	kc.mu.RUnlock()
	if ok {
		kc.hits.Add(1)
		return q.Clone(), nil
	}
	return kc.extract(fp, cert, caPub)
}

// sight resolves an STS peer certificate. An extracted certificate
// is a hit and returns Q_U. A first sight records the fingerprint,
// counts one miss and reports first with no extraction: the caller
// verifies straight from the certificate. A second sight extracts and
// caches like ExtractPublicKey, so every later handshake hits.
func (kc *KeyCache) sight(cert *ecqv.Certificate, caPub ec.Point) (q ec.Point, first bool, err error) {
	fp := certFingerprint(cert, caPub)
	kc.mu.Lock()
	q, ok := kc.extracted[fp]
	_, again := kc.seen[fp]
	if !ok && !again {
		if kc.seen == nil || len(kc.seen) >= keyCacheMaxEntries {
			kc.seen = make(map[[32]byte]struct{})
		}
		kc.seen[fp] = struct{}{}
	}
	kc.mu.Unlock()
	switch {
	case ok:
		kc.hits.Add(1)
		return q.Clone(), false, nil
	case !again:
		kc.misses.Add(1)
		return ec.Point{}, true, nil
	}
	q, err = kc.extract(fp, cert, caPub)
	return q, false, err
}

// extract runs equation (1) on a miss and caches Q_U, taking the
// certificate out of the first-sight set.
func (kc *KeyCache) extract(fp [32]byte, cert *ecqv.Certificate, caPub ec.Point) (ec.Point, error) {
	kc.misses.Add(1)
	q, err := ecqv.ExtractPublicKey(cert, caPub)
	if err != nil {
		return ec.Point{}, err
	}
	kc.mu.Lock()
	if len(kc.extracted) >= keyCacheMaxEntries {
		kc.extracted = make(map[[32]byte]ec.Point)
	}
	kc.extracted[fp] = q.Clone()
	delete(kc.seen, fp)
	if len(kc.seen) == 0 {
		kc.seen = nil
	}
	kc.mu.Unlock()
	return q, nil
}

// Verifier returns an ECDSA verification key for q with its
// ec.MultTable precomputed, building and caching it on first use. The
// returned key is shared and must be treated as immutable.
func (kc *KeyCache) Verifier(c *ec.Curve, q ec.Point) *ecdsa.PublicKey {
	fp := pointFingerprint(c, q)
	kc.mu.RLock()
	pub, ok := kc.verifiers[fp]
	kc.mu.RUnlock()
	if ok {
		kc.hits.Add(1)
		return pub
	}
	kc.misses.Add(1)
	// Second level: another party may have built this table already
	// (the CA and wave-initiator keys are identical fleet-wide).
	if shared, ok := kc.shared.Lookup(fp); ok {
		kc.sharedHits.Add(1)
		pub = shared
	} else {
		pub = (&ecdsa.PublicKey{Curve: c, Q: q.Clone()}).Precompute()
		// Publish for the rest of the fleet; adopt the winner if
		// another builder got there first.
		pub = kc.shared.Publish(fp, pub)
	}
	kc.mu.Lock()
	if len(kc.verifiers) >= keyCacheMaxEntries {
		kc.verifiers = make(map[[32]byte]*ecdsa.PublicKey)
	}
	// Keep the first stored instance so concurrent fillers converge on
	// one shared table.
	if prev, ok := kc.verifiers[fp]; ok {
		pub = prev
	} else {
		kc.verifiers[fp] = pub
	}
	kc.mu.Unlock()
	return pub
}
