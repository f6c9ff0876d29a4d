// Package group implements authenticated group keys for in-vehicle
// networks on top of the STS-ECQV pairwise substrate — the extension
// direction of Püllen et al. [8] that the paper's related work
// surveys.
//
// Model: a leader (the gateway ECU) establishes a pairwise dynamic
// session with every member via the STS engine, then distributes an
// epoch group key to each member sealed under the pairwise session
// keys. Every membership change bumps the epoch and redistributes a
// fresh key, so departed members cannot read later traffic and new
// members cannot read earlier traffic (group-level forward/backward
// secrecy, inherited from the pairwise DKD).
package group

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/aead"
	"repro/internal/core"
	"repro/internal/ecqv"
	"repro/internal/kdf"
)

// GroupKeySize is the distributed group secret size; encryption and
// MAC keys are derived from it per epoch.
const GroupKeySize = 32

// Keys is one epoch's group keying material, plus the receive state
// of that epoch: the highest seq Open has accepted from each sender.
// A Keys is safe for concurrent use.
type Keys struct {
	Epoch  uint32
	encKey []byte
	macKey []byte

	mu   sync.Mutex
	high map[ecqv.ID]uint64 // sender → highest seq opened this epoch
}

// deriveKeys expands a group secret into the epoch keys.
func deriveKeys(secret []byte, epoch uint32) (*Keys, error) {
	var info [8]byte
	binary.BigEndian.PutUint32(info[:4], epoch)
	okm, err := kdf.HKDF(secret, info[:4], []byte("group-epoch-keys"), kdf.SessionKeySize+kdf.MACKeySize)
	if err != nil {
		return nil, err
	}
	return &Keys{
		Epoch:  epoch,
		encKey: okm[:kdf.SessionKeySize],
		macKey: okm[kdf.SessionKeySize:],
		high:   make(map[ecqv.ID]uint64),
	}, nil
}

// memberState is the leader's view of one member.
type memberState struct {
	party    *core.Party
	pairwise []byte // STS session key block with this member
}

// Leader manages a keyed group.
type Leader struct {
	self    *core.Party
	opt     core.STSOptimization
	rand    io.Reader
	members map[ecqv.ID]*memberState
	epoch   uint32
	keys    *Keys
	scheme  aead.Scheme
}

// NewLeader creates a group with no members.
func NewLeader(self *core.Party, opt core.STSOptimization) (*Leader, error) {
	if self == nil || self.Cert == nil {
		return nil, errors.New("group: leader not provisioned")
	}
	rng := self.Rand
	if rng == nil {
		rng = rand.Reader
	}
	return &Leader{
		self: self, opt: opt, rand: rng,
		members: map[ecqv.ID]*memberState{},
		scheme:  aead.Default,
	}, nil
}

// Epoch returns the current key epoch (0 = no key yet).
func (l *Leader) Epoch() uint32 { return l.epoch }

// Keys returns the leader's current group keys.
func (l *Leader) Keys() (*Keys, error) {
	if l.keys == nil {
		return nil, errors.New("group: no epoch established")
	}
	return l.keys, nil
}

// Size returns the member count (leader excluded).
func (l *Leader) Size() int { return len(l.members) }

// Add runs a pairwise STS handshake with the member, bumps the epoch
// and returns the key-distribution messages for every member (the new
// one included). Each message is addressed and must be delivered to
// its member's Member.Install.
func (l *Leader) Add(member *core.Party) (map[ecqv.ID][]byte, error) {
	if member == nil || member.Cert == nil {
		return nil, errors.New("group: member not provisioned")
	}
	if _, dup := l.members[member.ID]; dup {
		return nil, fmt.Errorf("group: member %s already present", member.ID)
	}
	pairwise, err := pairwiseHandshake(l.self, member, l.opt)
	if err != nil {
		return nil, fmt.Errorf("group: pairwise handshake with %s: %w", member.ID, err)
	}
	l.members[member.ID] = &memberState{party: member, pairwise: pairwise}
	return l.rekey()
}

// Remove drops a member, bumps the epoch and returns distribution
// messages for the remaining members. The removed member never sees
// the new key.
func (l *Leader) Remove(id ecqv.ID) (map[ecqv.ID][]byte, error) {
	if _, ok := l.members[id]; !ok {
		return nil, fmt.Errorf("group: no member %s", id)
	}
	delete(l.members, id)
	return l.rekey()
}

// rekey draws a fresh group secret and seals it for every member.
func (l *Leader) rekey() (map[ecqv.ID][]byte, error) {
	secret := make([]byte, GroupKeySize)
	if _, err := io.ReadFull(l.rand, secret); err != nil {
		return nil, fmt.Errorf("group: secret: %w", err)
	}
	l.epoch++
	keys, err := deriveKeys(secret, l.epoch)
	if err != nil {
		return nil, err
	}
	l.keys = keys

	out := map[ecqv.ID][]byte{}
	for id, ms := range l.members {
		msg, err := l.sealKeyMessage(ms, secret)
		if err != nil {
			return nil, err
		}
		out[id] = msg
	}
	return out, nil
}

// sealKeyMessage builds epoch(4) ‖ sealed(pairwise, secret, aad=epoch‖ids).
func (l *Leader) sealKeyMessage(ms *memberState, secret []byte) ([]byte, error) {
	enc := ms.pairwise[:kdf.SessionKeySize]
	mac := ms.pairwise[kdf.SessionKeySize:]
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], l.epoch)
	aad := append(hdr[:], l.self.ID[:]...)
	aad = append(aad, ms.party.ID[:]...)
	sealed, err := l.scheme.Seal(enc, mac, secret, aad)
	if err != nil {
		return nil, err
	}
	return append(hdr[:], sealed...), nil
}

// Member is the non-leader side.
type Member struct {
	self     *core.Party
	leaderID ecqv.ID
	pairwise []byte
	keys     *Keys
	scheme   aead.Scheme
}

// Join runs the member side of admission: the pairwise handshake was
// already driven by Leader.Add (in-process engine pair), so Join
// captures the resulting key block. Deployments would drive the same
// engines over their link.
func Join(self *core.Party, leaderID ecqv.ID, pairwise []byte) (*Member, error) {
	if len(pairwise) != kdf.SessionKeySize+kdf.MACKeySize {
		return nil, errors.New("group: bad pairwise key block")
	}
	return &Member{
		self: self, leaderID: leaderID,
		pairwise: append([]byte(nil), pairwise...),
		scheme:   aead.Default,
	}, nil
}

// Install consumes a key-distribution message.
func (m *Member) Install(data []byte) error {
	if len(data) < 4 {
		return errors.New("group: short key message")
	}
	epoch := binary.BigEndian.Uint32(data[:4])
	enc := m.pairwise[:kdf.SessionKeySize]
	mac := m.pairwise[kdf.SessionKeySize:]
	aad := append(append([]byte(nil), data[:4]...), m.leaderID[:]...)
	aad = append(aad, m.self.ID[:]...)
	secret, err := m.scheme.Open(enc, mac, data[4:], aad)
	if err != nil {
		return fmt.Errorf("group: key message: %w", err)
	}
	if m.keys != nil && epoch <= m.keys.Epoch {
		return fmt.Errorf("group: stale epoch %d (have %d)", epoch, m.keys.Epoch)
	}
	keys, err := deriveKeys(secret, epoch)
	if err != nil {
		return err
	}
	m.keys = keys
	return nil
}

// Keys returns the member's current group keys.
func (m *Member) Keys() (*Keys, error) {
	if m.keys == nil {
		return nil, errors.New("group: no epoch installed")
	}
	return m.keys, nil
}

// Group datagram format: epoch(4) ‖ sender(16) ‖ seq(8) ‖ ct ‖ tag(16).

const groupHeader = 4 + ecqv.IDSize + 8

// Seal protects a group datagram under the epoch keys.
func (k *Keys) Seal(sender ecqv.ID, seq uint64, payload []byte) ([]byte, error) {
	hdr := make([]byte, groupHeader)
	binary.BigEndian.PutUint32(hdr[:4], k.Epoch)
	copy(hdr[4:20], sender[:])
	binary.BigEndian.PutUint64(hdr[20:], seq)

	// Per-datagram keystream from (epoch key, sender, seq).
	stream, err := datagramStream(k.encKey, hdr, len(payload))
	if err != nil {
		return nil, err
	}
	out := make([]byte, groupHeader+len(payload)+16)
	copy(out, hdr)
	for i, b := range payload {
		out[groupHeader+i] = b ^ stream[i]
	}
	tag := k.tag(out[:groupHeader+len(payload)])
	copy(out[groupHeader+len(payload):], tag)
	return out, nil
}

// ErrGroupAuth is returned for datagrams that fail authentication or
// target another epoch.
var ErrGroupAuth = errors.New("group: datagram rejected")

// ErrGroupReplay is returned for an authentic datagram whose seq is not
// above the highest one already opened from its sender this epoch: a
// replay, or a datagram that arrived after a later one.
var ErrGroupReplay = errors.New("group: datagram replayed")

// Open verifies and decrypts a group datagram, returning the sender
// and payload. Each sender's seq must rise strictly within an epoch:
// an authentic datagram at or below the sender's highest accepted seq
// fails with ErrGroupReplay, and the check and the update of the mark
// are one step, so of concurrent Opens of one datagram exactly one
// succeeds. A new epoch's Keys starts with no marks.
func (k *Keys) Open(data []byte) (ecqv.ID, []byte, error) {
	if len(data) < groupHeader+16 {
		return ecqv.ID{}, nil, fmt.Errorf("%w: short", ErrGroupAuth)
	}
	epoch := binary.BigEndian.Uint32(data[:4])
	if epoch != k.Epoch {
		return ecqv.ID{}, nil, fmt.Errorf("%w: epoch %d, have %d", ErrGroupAuth, epoch, k.Epoch)
	}
	body := data[:len(data)-16]
	if !hmac.Equal(k.tag(body), data[len(data)-16:]) {
		return ecqv.ID{}, nil, ErrGroupAuth
	}
	var sender ecqv.ID
	copy(sender[:], data[4:20])
	if err := k.advance(sender, binary.BigEndian.Uint64(data[20:groupHeader])); err != nil {
		return ecqv.ID{}, nil, err
	}
	ct := data[groupHeader : len(data)-16]
	stream, err := datagramStream(k.encKey, data[:groupHeader], len(ct))
	if err != nil {
		return ecqv.ID{}, nil, err
	}
	pt := make([]byte, len(ct))
	for i, b := range ct {
		pt[i] = b ^ stream[i]
	}
	return sender, pt, nil
}

// advance raises sender's mark to seq, or fails with ErrGroupReplay
// when seq is not above it.
func (k *Keys) advance(sender ecqv.ID, seq uint64) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if last, ok := k.high[sender]; ok && seq <= last {
		return fmt.Errorf("%w: seq %d from %s, have %d", ErrGroupReplay, seq, sender, last)
	}
	k.high[sender] = seq
	return nil
}

// datagramStream derives the per-datagram keystream; empty payloads
// need none.
func datagramStream(encKey, hdr []byte, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	return kdf.HKDF(encKey, hdr, []byte("group-datagram"), n)
}

func (k *Keys) tag(body []byte) []byte {
	m := hmac.New(sha256.New, k.macKey)
	m.Write([]byte("group-record"))
	m.Write(body)
	return m.Sum(nil)[:16]
}

// pairwiseHandshake drives the STS engine pair to completion.
func pairwiseHandshake(leader, member *core.Party, opt core.STSOptimization) ([]byte, error) {
	init, err := core.NewInitiator(leader, opt)
	if err != nil {
		return nil, err
	}
	resp, err := core.NewResponder(member, opt)
	if err != nil {
		return nil, err
	}
	if err := core.Exchange(init, resp, nil); err != nil {
		return nil, err
	}
	return init.SessionKey()
}

// PairwiseKey exposes the leader's pairwise key block for a member so
// the in-process simulation can construct the matching Member (see
// Join). Deployments derive it on the member's own engine instead.
func (l *Leader) PairwiseKey(id ecqv.ID) ([]byte, error) {
	ms, ok := l.members[id]
	if !ok {
		return nil, fmt.Errorf("group: no member %s", id)
	}
	return append([]byte(nil), ms.pairwise...), nil
}
