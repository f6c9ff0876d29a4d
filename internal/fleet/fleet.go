// Package fleet manages secure sessions from one device to a fleet of
// peers: session establishment via the STS engine, per-peer record
// channels, and automatic re-keying when the session policy expires —
// the operational loop behind the paper's motivation that keys must
// rotate with communication sessions rather than certificate sessions.
//
// The Manager is built for fleet-scale concurrency. The peer table is
// lock-striped into fixed shards keyed by a hash of the peer identity,
// and each peer additionally carries its own session lock, so
// handshakes, Seal and Open on different peers never contend; only
// operations on the same peer serialize. EstablishAll drives many STS
// handshakes through a bounded worker pool, which is how a gateway
// brings a whole fleet online (or re-keys it) in parallel.
//
// The Manager drives both handshake state machines in-process, which
// matches the library's simulation scope; a deployment would transport
// the same engine messages over its network stack (see
// internal/integration for the CAN-FD version of that loop).
package fleet

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/ecqv"
	"repro/internal/session"
)

// numShards stripes the peer table. A power of two keeps the shard
// selection a mask; 16 shards is ample for the goroutine counts a
// single gateway device realistically runs.
const numShards = 16

// shardIndex maps a peer identity onto its stripe (FNV-1a).
func shardIndex(id ecqv.ID) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range id {
		h ^= uint32(b)
		h *= prime32
	}
	return int(h & (numShards - 1))
}

// shard is one stripe of the peer table. Its lock guards only the map;
// session state is guarded per peer.
type shard struct {
	mu    sync.RWMutex
	peers map[ecqv.ID]*peerState
}

// Manager maintains sessions from a local device to many peers.
type Manager struct {
	self    *core.Party
	opt     core.STSOptimization
	policy  session.Policy
	retry   RetryPolicy
	carrier CarrierFactory
	hsRand  HandshakeRand

	shards [numShards]shard

	handshakes atomic.Uint64
	rekeys     atomic.Uint64
	records    atomic.Uint64
	hsRetries  atomic.Uint64
	hsFailures atomic.Uint64
	hsWorst    atomic.Uint64
}

// RetryPolicy caps handshake attempts over an unreliable carrier.
// Ephemeral secrets never survive a failed attempt: every retry is a
// complete fresh STS run with new engines, so a half-delivered
// transcript can never be resumed into a key.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per handshake (≤ 0 or
	// 1 means a single attempt — the lossless default).
	MaxAttempts int
}

// Stats counts manager activity.
type Stats struct {
	Handshakes int // total STS handshakes run (incl. rekeys)
	Rekeys     int // handshakes triggered by policy expiry
	Records    int // records sealed

	// Retry-policy counters (zero under the lossless default carrier).
	HandshakeRetries int // fresh attempts after a failed one
	FailedAttempts   int // attempts that died on the wire or aborted

	// WorstAttempts is the largest number of attempts any single
	// handshake needed to succeed (1 on a clean fabric; 0 before the
	// first handshake). Attack scenarios read it as "how hard did the
	// adversary make the unluckiest peer work", which aggregate retry
	// totals wash out.
	WorstAttempts int

	// KeyCache reports the local device's key cache, one entry per
	// peer certificate: the first handshake with a peer verifies
	// straight from its certificate (one miss), the second extracts
	// its key and attaches its verification table (two misses), and
	// every later rekey is served from the entry (two hits), so a
	// steady-state fleet shows hits growing with rekeys.
	KeyCache core.CacheStats

	// SharedTables reports the process-global precomputed-table cache,
	// keyed by certificate, that every party's key cache consults
	// before building the table of a certificate it sees again. When
	// the same peers handshake a second time, every responder verifies
	// the same initiator certificate, so one build serves the whole
	// wave; the counters are global to the process, not to this
	// manager.
	SharedTables core.SharedTableStats
}

type peerState struct {
	// mu serializes session operations on this one peer: channel use,
	// explicit reconnects and the transparent rekey handshake.
	// Different peers hold different locks, so fleet-wide traffic and
	// handshakes proceed in parallel.
	mu    sync.Mutex
	party *core.Party
	// send/recv are this side's channels; recv is the remote side's
	// view (returned to the caller holding the peer).
	send, recv *session.Channel

	// established flips once the first handshake completes, letting
	// Peers enumerate live sessions without taking session locks.
	established atomic.Bool
}

// NewManager creates a session manager for the local device.
func NewManager(self *core.Party, opt core.STSOptimization, policy session.Policy) (*Manager, error) {
	if self == nil || self.Cert == nil {
		return nil, errors.New("fleet: local device not provisioned")
	}
	m := &Manager{self: self, opt: opt, policy: policy}
	for i := range m.shards {
		m.shards[i].peers = map[ecqv.ID]*peerState{}
	}
	return m, nil
}

// SetRetryPolicy configures the per-handshake attempt budget. Call
// before traffic starts; it applies to every subsequent handshake,
// including transparent rekeys.
func (m *Manager) SetRetryPolicy(p RetryPolicy) { m.retry = p }

// SetCarrier routes handshakes through a custom carrier — typically a
// NetCarrier per peer over the simulated CAN fabric. A nil factory
// (or a nil carrier returned for a peer) falls back to the in-process
// lossless exchange.
func (m *Manager) SetCarrier(f CarrierFactory) { m.carrier = f }

// HandshakeRand derives the initiator-side ephemeral randomness for
// one handshake attempt. Returning nil keeps the local party's
// default stream for that attempt.
type HandshakeRand func(peer ecqv.ID, attempt int) io.Reader

// SetHandshakeRand makes every handshake attempt draw its
// initiator-side ephemerals from a per-(peer, attempt) stream instead
// of the local party's shared one. This is the determinism half of
// reproducible concurrent chaos runs: with content-keyed bus faults
// and per-attempt randomness, EstablishAll with any parallelism
// produces the same fault and recovery trace under one seed, because
// no conversation's bytes depend on how the scheduler interleaved the
// others. The factory must be deterministic in its arguments; the
// local key cache is shared across attempts, so cache behaviour is
// unchanged.
func (m *Manager) SetHandshakeRand(f HandshakeRand) { m.hsRand = f }

// peerEntry returns the peer's state, creating it when create is set.
func (m *Manager) peerEntry(id ecqv.ID, create bool) *peerState {
	sh := &m.shards[shardIndex(id)]
	if !create {
		sh.mu.RLock()
		ps := sh.peers[id]
		sh.mu.RUnlock()
		return ps
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ps, ok := sh.peers[id]
	if !ok {
		ps = &peerState{}
		sh.peers[id] = ps
	}
	return ps
}

// Connect establishes (or replaces) the session to a peer by running a
// full STS handshake through the message-driven engine. A failed
// Connect leaves the manager untouched: no peer entry is created and
// an existing session keeps its previous party and keys. Concurrent
// Connects to different peers run in parallel; to the same peer each
// runs its own handshake and the last to finish wins.
func (m *Manager) Connect(peer *core.Party) error {
	if peer == nil || peer.Cert == nil {
		return errors.New("fleet: peer not provisioned")
	}
	keyBlock, err := m.handshake(peer)
	if err != nil {
		return err
	}
	send, recv, err := session.NewPair(keyBlock, m.policy)
	if err != nil {
		return err
	}
	ps := m.peerEntry(peer.ID, true)
	ps.mu.Lock()
	ps.party, ps.send, ps.recv = peer, send, recv
	ps.established.Store(true)
	ps.mu.Unlock()
	m.handshakes.Add(1)
	return nil
}

// establishLocked re-keys a live session whose per-peer lock is held —
// the transparent rekey path under Seal.
func (m *Manager) establishLocked(ps *peerState) error {
	keyBlock, err := m.handshake(ps.party)
	if err != nil {
		return err
	}
	send, recv, err := session.NewPair(keyBlock, m.policy)
	if err != nil {
		return err
	}
	ps.send, ps.recv = send, recv
	m.handshakes.Add(1)
	return nil
}

// EstablishAll connects every listed peer through a pool of at most
// parallelism workers (GOMAXPROCS when ≤ 0). The returned slice
// aligns with peers — errs[i] is nil when peers[i] established — so
// callers can retry exactly the failures; errors.Join(errs...) gives
// the aggregate. Peers already connected are re-keyed, matching
// Connect semantics.
func (m *Manager) EstablishAll(peers []*core.Party, parallelism int) []error {
	errs := make([]error, len(peers))
	conc.ForEach(len(peers), parallelism, func(i int) {
		if err := m.Connect(peers[i]); err != nil {
			errs[i] = fmt.Errorf("fleet: peer %d: %w", i, err)
		}
	})
	return errs
}

// ErrUnknownPeer is returned for peers without a session.
var ErrUnknownPeer = errors.New("fleet: no session with peer")

// Seal protects a payload for a peer, transparently re-keying (a fresh
// STS handshake) when the session policy has expired. Only the target
// peer's session lock is held, so traffic to other peers is unaffected
// even while the rekey handshake runs.
func (m *Manager) Seal(peerID ecqv.ID, payload []byte) ([]byte, error) {
	ps := m.peerEntry(peerID, false)
	if ps == nil {
		return nil, ErrUnknownPeer
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.send == nil {
		return nil, ErrUnknownPeer
	}
	rec, err := ps.send.Seal(payload)
	if errors.Is(err, session.ErrRekeyRequired) {
		if err := m.establishLocked(ps); err != nil {
			return nil, fmt.Errorf("fleet: rekey: %w", err)
		}
		m.rekeys.Add(1)
		rec, err = ps.send.Seal(payload)
	}
	if err != nil {
		return nil, err
	}
	m.records.Add(1)
	return rec, nil
}

// Open verifies and decrypts a record on the peer's receive channel —
// the remote side's view in this in-process simulation. It holds the
// same per-peer lock as Seal, so a transparent rekey never swaps the
// channel mid-open.
func (m *Manager) Open(peerID ecqv.ID, record []byte) ([]byte, error) {
	ps := m.peerEntry(peerID, false)
	if ps == nil {
		return nil, ErrUnknownPeer
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.recv == nil {
		return nil, ErrUnknownPeer
	}
	return ps.recv.Open(record)
}

// PeerChannel returns the remote side's receive channel for a peer —
// in this in-process simulation, the handle "the other device" would
// hold. Records sealed by Seal open on it. The channel itself is not
// safe for use concurrent with a rekey of the same peer; prefer Open
// under concurrency.
func (m *Manager) PeerChannel(peerID ecqv.ID) (*session.Channel, error) {
	ps := m.peerEntry(peerID, false)
	if ps == nil {
		return nil, ErrUnknownPeer
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.recv == nil {
		return nil, ErrUnknownPeer
	}
	return ps.recv, nil
}

// Disconnect drops the session to a peer. Operations racing with the
// disconnect complete either on the old session or not at all.
func (m *Manager) Disconnect(peerID ecqv.ID) {
	sh := &m.shards[shardIndex(peerID)]
	sh.mu.Lock()
	delete(sh.peers, peerID)
	sh.mu.Unlock()
}

// Peers returns the identities with live sessions.
func (m *Manager) Peers() []ecqv.ID {
	var out []ecqv.ID
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for id, ps := range sh.peers {
			if ps.established.Load() {
				out = append(out, id)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Handshakes:       int(m.handshakes.Load()),
		Rekeys:           int(m.rekeys.Load()),
		Records:          int(m.records.Load()),
		HandshakeRetries: int(m.hsRetries.Load()),
		FailedAttempts:   int(m.hsFailures.Load()),
		WorstAttempts:    int(m.hsWorst.Load()),
		KeyCache:         m.self.KeyCache().Stats(),
		SharedTables:     core.SharedTables().Stats(),
	}
}

// handshake establishes a key block with the peer under the retry
// policy: each attempt is a complete fresh STS run through the peer's
// carrier, and a failed attempt (lost beyond the transport's recovery
// budget, or desynchronized into an engine state error) burns one
// attempt from the budget. It touches only the Manager's atomic
// counters, so under the default in-process carrier any number of
// handshakes to distinct peers run in parallel; NetCarriers sharing a
// transport.World serialize whole attempts on its conversation lock.
// With content-keyed bus impairment and SetHandshakeRand installed,
// concurrent chaos runs reproduce bit-for-bit at any parallelism.
func (m *Manager) handshake(peer *core.Party) ([]byte, error) {
	if peer == nil || peer.Cert == nil {
		return nil, errors.New("fleet: peer not provisioned")
	}
	carrier, err := m.carrierFor(peer)
	if err != nil {
		return nil, err
	}
	attempts := m.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			m.hsRetries.Add(1)
		}
		key, err := m.attempt(peer, carrier, attempt)
		if err == nil {
			m.noteWorst(uint64(attempt + 1))
			return key, nil
		}
		m.hsFailures.Add(1)
		lastErr = err
	}
	m.noteWorst(uint64(attempts))
	return nil, fmt.Errorf("fleet: handshake failed after %d attempts: %w", attempts, lastErr)
}

// noteWorst raises the worst-attempts watermark to n (CAS max, safe
// under parallel EstablishAll waves).
func (m *Manager) noteWorst(n uint64) {
	for {
		cur := m.hsWorst.Load()
		if n <= cur || m.hsWorst.CompareAndSwap(cur, n) {
			return
		}
	}
}

// carrierFor resolves the peer's carrier, defaulting to the lossless
// in-process exchange.
func (m *Manager) carrierFor(peer *core.Party) (Carrier, error) {
	if m.carrier == nil {
		return directCarrier{}, nil
	}
	c, err := m.carrier(peer)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return directCarrier{}, nil
	}
	return c, nil
}

// attempt runs one complete STS exchange through the carrier and
// returns the agreed key block.
func (m *Manager) attempt(peer *core.Party, carrier Carrier, attempt int) ([]byte, error) {
	self := m.self
	if m.hsRand != nil {
		if rng := m.hsRand(peer.ID, attempt); rng != nil {
			self = m.self.CloneWithRand(rng)
		}
	}
	init, err := core.NewInitiator(self, m.opt)
	if err != nil {
		return nil, err
	}
	resp, err := core.NewResponder(peer, m.opt)
	if err != nil {
		return nil, err
	}
	if err := carrier.Exchange(init, resp); err != nil {
		return nil, err
	}
	keyA, err := init.SessionKey()
	if err != nil {
		return nil, err
	}
	keyB, err := resp.SessionKey()
	if err != nil {
		return nil, err
	}
	for i := range keyA {
		if keyA[i] != keyB[i] {
			return nil, errors.New("fleet: handshake key mismatch")
		}
	}
	return keyA, nil
}
