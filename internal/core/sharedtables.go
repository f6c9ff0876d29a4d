package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/ecdsa"
)

// SharedTableCache is the fleet-global precomputed-table store. The
// per-Party KeyCache deduplicates table builds across one party's
// handshakes; this cache deduplicates them across parties. The keys
// that matter are fleet-static — the CA key and the gateway/initiator
// key every responder of an EstablishAll wave verifies against — so
// without sharing, N parties build N identical ec.MultTable combs.
// With it, one party builds and everyone else adopts.
//
// Tables are keyed by the same certificate fingerprint as KeyCache
// entries. It sees repeated certificates only: a party's KeyCache
// consults it once per entry, on the entry's first cached
// verification — an STS handshake's second sight of a certificate, or
// an S-ECDSA verification. A first sight verifies straight from the
// certificate and never reaches it, so a cold bring-up of never-seen
// peers reads no lookups here at all. Like the KeyCache, it leaves the
// meter unchanged.
//
// Reads are lock-free: the table map is immutable and swapped whole
// through an atomic pointer (copy-on-write), so the steady state —
// every lookup a hit — takes no lock at all. Writers copy under a
// mutex. The cache holds derived public data only and is safe for
// concurrent use from any number of parties.
type SharedTableCache struct {
	tables atomic.Pointer[map[[32]byte]*ecdsa.PublicKey]
	mu     sync.Mutex // serializes copy-on-write inserts

	hits   atomic.Uint64
	misses atomic.Uint64
}

// sharedTableMaxEntries bounds the map; beyond it the map is reset
// (same simplest-possible eviction as KeyCache). Tables worth sharing
// are the handful of fleet-static keys, so the bound exists only to
// cap pathological churn.
const sharedTableMaxEntries = 1024

// NewSharedTableCache returns an empty cache. Production code uses the
// process-global SharedTables; private instances serve tests.
func NewSharedTableCache() *SharedTableCache {
	s := &SharedTableCache{}
	m := make(map[[32]byte]*ecdsa.PublicKey)
	s.tables.Store(&m)
	return s
}

// sharedTables is the process-global instance every KeyCache consults.
var sharedTables = NewSharedTableCache()

// SharedTables returns the process-global shared table cache.
func SharedTables() *SharedTableCache { return sharedTables }

// Lookup returns the cached verifier for fingerprint fp, lock-free.
func (s *SharedTableCache) Lookup(fp [32]byte) (*ecdsa.PublicKey, bool) {
	pub, ok := (*s.tables.Load())[fp]
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return pub, ok
}

// Publish inserts a freshly built verifier and returns the canonical
// instance: if another party published the same fingerprint first, its
// table wins and the caller adopts it, so concurrent builders converge
// on one shared table exactly like KeyCache fillers do.
func (s *SharedTableCache) Publish(fp [32]byte, pub *ecdsa.PublicKey) *ecdsa.PublicKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.tables.Load()
	if prev, ok := old[fp]; ok {
		return prev
	}
	next := make(map[[32]byte]*ecdsa.PublicKey, len(old)+1)
	if len(old) < sharedTableMaxEntries {
		for k, v := range old {
			next[k] = v
		}
	}
	next[fp] = pub
	s.tables.Store(&next)
	return pub
}

// SharedTableStats is a point-in-time view of fleet-wide sharing.
type SharedTableStats struct {
	Hits    int // lookups served from the shared map
	Misses  int // lookups that fell through to a local build
	Entries int // tables currently shared
}

// Stats returns the hit/miss counters and current size.
func (s *SharedTableCache) Stats() SharedTableStats {
	return SharedTableStats{
		Hits:    int(s.hits.Load()),
		Misses:  int(s.misses.Load()),
		Entries: len(*s.tables.Load()),
	}
}
