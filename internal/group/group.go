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
//
// A group key authenticates membership, not the sender: every member
// holds the same epoch key, so any member can seal a datagram that
// claims another member's (or the leader's) sender ID. A receiver
// learns only that some current member sent it.
//
// Every key here runs on internal/aead, keyed once: one Keys per
// pairwise key block, which seals the key-distribution messages, and
// one per epoch, which protects the datagrams.
package group

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
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
	Epoch uint32
	keys  *aead.Keys // the epoch's encryption and MAC keys, read-only

	mu   sync.Mutex
	high map[ecqv.ID]uint64 // sender → highest seq opened this epoch
}

// deriveKeys expands a group secret into the epoch keys.
func deriveKeys(secret []byte, epoch uint32) (*Keys, error) {
	var info [4]byte
	binary.BigEndian.PutUint32(info[:], epoch)
	okm, err := kdf.HKDF(secret, info[:], []byte("group-epoch-keys"), kdf.SessionKeySize+kdf.MACKeySize)
	if err != nil {
		return nil, err
	}
	keys, err := aead.New(okm[:kdf.SessionKeySize], okm[kdf.SessionKeySize:])
	if err != nil {
		return nil, err
	}
	return &Keys{Epoch: epoch, keys: keys, high: make(map[ecqv.ID]uint64)}, nil
}

// memberState is the leader's view of one member.
type memberState struct {
	party    *core.Party
	pairwise []byte     // STS session key block with this member
	keys     *aead.Keys // pairwise, keyed once: seals key messages
}

// Leader manages a keyed group.
type Leader struct {
	self    *core.Party
	opt     core.STSOptimization
	rand    io.Reader // group secrets and key-message nonces
	members map[ecqv.ID]*memberState
	epoch   uint32
	keys    *Keys
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
	keys, err := pairwiseKeys(pairwise)
	if err != nil {
		return nil, err
	}
	l.members[member.ID] = &memberState{party: member, pairwise: pairwise, keys: keys}
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

// rekey draws a fresh group secret and seals it for every member, in
// ID order, so a leader on a deterministic reader draws the same
// nonces for the same members on every run.
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
	ids := slices.SortedFunc(maps.Keys(l.members), func(a, b ecqv.ID) int { return bytes.Compare(a[:], b[:]) })
	for _, id := range ids {
		msg, err := l.sealKeyMessage(l.members[id], secret)
		if err != nil {
			return nil, err
		}
		out[id] = msg
	}
	return out, nil
}

// sealKeyMessage builds epoch(4) ‖ sealed(pairwise, secret, aad=epoch‖ids),
// with the nonce drawn from the leader's reader.
func (l *Leader) sealKeyMessage(ms *memberState, secret []byte) ([]byte, error) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], l.epoch)
	aad := append(hdr[:], l.self.ID[:]...)
	aad = append(aad, ms.party.ID[:]...)
	sealed, err := ms.keys.Seal(l.rand, secret, aad)
	if err != nil {
		return nil, err
	}
	return append(hdr[:], sealed...), nil
}

// pairwiseKeys keys the key-message construction with a pairwise STS
// key block, enc ‖ mac.
func pairwiseKeys(block []byte) (*aead.Keys, error) {
	if len(block) != kdf.SessionKeySize+kdf.MACKeySize {
		return nil, errors.New("group: bad pairwise key block")
	}
	return aead.New(block[:kdf.SessionKeySize], block[kdf.SessionKeySize:])
}

// Member is the non-leader side.
type Member struct {
	self     *core.Party
	leaderID ecqv.ID
	pairwise *aead.Keys // opens key messages
	keys     *Keys
}

// Join runs the member side of admission: the pairwise handshake was
// already driven by Leader.Add (in-process engine pair), so Join
// captures the resulting key block. Deployments would drive the same
// engines over their link.
func Join(self *core.Party, leaderID ecqv.ID, pairwise []byte) (*Member, error) {
	keys, err := pairwiseKeys(pairwise)
	if err != nil {
		return nil, err
	}
	return &Member{self: self, leaderID: leaderID, pairwise: keys}, nil
}

// Install consumes a key-distribution message.
func (m *Member) Install(data []byte) error {
	if len(data) < 4 {
		return errors.New("group: short key message")
	}
	epoch := binary.BigEndian.Uint32(data[:4])
	aad := append(append([]byte(nil), data[:4]...), m.leaderID[:]...)
	aad = append(aad, m.self.ID[:]...)
	secret, err := m.pairwise.Open(data[4:], aad)
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

// Group datagram format:
//
//	header = epoch(4) ‖ sender(16) ‖ seq(8, big-endian)
//	ct     = AES-128-CTR(epoch enc, IV = MAC("group-iv" ‖ header)[:16], payload)
//	tag    = MAC("group-record" ‖ header ‖ ct)[:16]
//
// where MAC is HMAC-SHA-256 under the epoch MAC key. The IV is a
// pseudorandom function of (epoch, sender, seq): distinct headers get
// independent counter blocks, whose keystreams overlap only with
// negligible probability, and the IV costs no wire byte.

const (
	groupHeader = 4 + ecqv.IDSize + 8
	tagSize     = 16
)

// Seal protects a group datagram under the epoch keys.
func (k *Keys) Seal(sender ecqv.ID, seq uint64, payload []byte) ([]byte, error) {
	body := groupHeader + len(payload)
	out := make([]byte, body+tagSize)
	binary.BigEndian.PutUint32(out[:4], k.Epoch)
	copy(out[4:20], sender[:])
	binary.BigEndian.PutUint64(out[20:groupHeader], seq)
	k.crypt(out[groupHeader:body], payload, out[:groupHeader])
	tag := k.keys.MAC([]byte("group-record"), out[:body])
	copy(out[body:], tag[:tagSize])
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
	if len(data) < groupHeader+tagSize {
		return ecqv.ID{}, nil, fmt.Errorf("%w: short", ErrGroupAuth)
	}
	epoch := binary.BigEndian.Uint32(data[:4])
	if epoch != k.Epoch {
		return ecqv.ID{}, nil, fmt.Errorf("%w: epoch %d, have %d", ErrGroupAuth, epoch, k.Epoch)
	}
	body := data[:len(data)-tagSize]
	if tag := k.keys.MAC([]byte("group-record"), body); !hmac.Equal(tag[:tagSize], data[len(body):]) {
		return ecqv.ID{}, nil, ErrGroupAuth
	}
	var sender ecqv.ID
	copy(sender[:], data[4:20])
	if err := k.advance(sender, binary.BigEndian.Uint64(data[20:groupHeader])); err != nil {
		return ecqv.ID{}, nil, err
	}
	pt := make([]byte, len(body)-groupHeader)
	k.crypt(pt, body[groupHeader:], body[:groupHeader])
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

// crypt XORs src with the keystream of the datagram whose header is
// hdr into dst. Empty payloads need no keystream.
func (k *Keys) crypt(dst, src, hdr []byte) {
	if len(src) == 0 {
		return
	}
	iv := k.keys.MAC([]byte("group-iv"), hdr)
	k.keys.XORKeyStream(dst, src, iv[:aead.NonceSize])
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
