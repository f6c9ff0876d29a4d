// Package session implements the secure communication session that
// follows key derivation — the "Encrypted Session" stage of the
// paper's Figure 1 — as a record layer over an established session
// key:
//
//   - authenticated encryption of application records (AES-128-CTR +
//     HMAC-SHA-256 encrypt-then-MAC, the §V-A primitive stack);
//   - per-direction sequence numbers with strict replay rejection:
//     records must arrive in order, as CAN, a reliable ordered bus,
//     delivers them, so the layer keeps no reorder window;
//   - a rekey policy that bounds how long one session key may live,
//     operationalizing the paper's core motivation: "implementation-
//     wise, either due to the limitations in the system's architecture,
//     constrained nature of the devices, or neglect from the
//     developers, [static keys] can lead to longer than the intended
//     use of the same session key" (§I).
//
// A Channel deliberately does not renew keys itself: when the policy
// trips it refuses further traffic with ErrRekeyRequired, forcing the
// caller back through a fresh KD run (a new STS handshake). That keeps
// the separation the paper draws between the communication session
// (this package) and the key-derivation protocol (internal/core).
//
// # Record construction
//
// The KD key block is enc(16) ‖ mac(32). NewPair derives one record key
// per session, HKDF-SHA-256(enc, salt = nil, info =
// "session-record-stream", 16 bytes), so records never share keystream
// with the STS Resp messages, which encrypt under enc itself, and
// expands it once into an AES-128 block cipher. Each record is then
//
//	header = seq(8, big-endian) ‖ dir(1)
//	ct     = AES-128-CTR(record key, IV = header ‖ 0⁷, plaintext)
//	tag    = HMAC-SHA-256(mac, "session-record" ‖ header ‖ ct)[:16]
//
// The CTR counter runs in the IV's seven zero low bytes, so it cannot
// carry into the direction byte before 2⁶⁰ bytes of one record.
//
// The MAC is keyed once per session as well: NewPair builds one
// internal/aead Keys from the record key and mac, which holds the AES
// key schedule and the MAC key's inner and outer SHA-256 states (RFC
// 2104 §4). Both channels share it read-only, and every record's tag
// resumes from those states instead of hashing the padded key again.
//
// A Channel is not safe for concurrent use: its sequence and replay
// state belong to one goroutine at a time. The two channels of a pair
// may run on different goroutines; they share only the read-only
// aead Keys.
package session

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/aead"
	"repro/internal/kdf"
)

// Direction labels the two record flows of a session.
type Direction byte

const (
	// DirAtoB — initiator to responder.
	DirAtoB Direction = 0x01
	// DirBtoA — responder to initiator.
	DirBtoA Direction = 0x02
)

func (d Direction) other() Direction {
	if d == DirAtoB {
		return DirBtoA
	}
	return DirAtoB
}

// Policy bounds the lifetime of one session key.
type Policy struct {
	// MaxRecords is the maximum number of records either direction may
	// protect under one key (0 = unlimited).
	MaxRecords uint64
	// MaxAge is the maximum wall-clock key lifetime (0 = unlimited).
	MaxAge time.Duration
}

// DefaultPolicy allows 2^20 records and a 24-hour key lifetime —
// conservative bounds for an in-vehicle communication session.
var DefaultPolicy = Policy{MaxRecords: 1 << 20, MaxAge: 24 * time.Hour}

// Errors of the record layer.
var (
	// ErrRekeyRequired is returned once the policy expires; establish a
	// new session (fresh KD run) to continue.
	ErrRekeyRequired = errors.New("session: key lifetime exhausted, rekey required")
	// ErrReplay is returned for a record out of sequence: a replay, or
	// one that arrives after a gap.
	ErrReplay = errors.New("session: record replayed or reordered")
	// ErrAuth is returned when record authentication fails.
	ErrAuth = errors.New("session: record authentication failed")
	// ErrMalformed is returned for records too short to parse.
	ErrMalformed = errors.New("session: malformed record")
)

// recordHeader is seq(8) ‖ direction(1).
const recordHeader = 9

// tagSize is the truncated HMAC-SHA-256 record tag.
const tagSize = 16

// Overhead is the record expansion in bytes.
const Overhead = recordHeader + tagSize

// Channel is one endpoint's view of an established communication
// session. A Channel is not safe for concurrent use; the two channels
// of a pair may run on different goroutines, since all they share is
// the pair's read-only aead Keys.
type Channel struct {
	dir     Direction  // the direction this endpoint sends in
	keys    *aead.Keys // record key and mac, shared by the pair, read-only
	policy  Policy
	started time.Time
	now     func() time.Time

	sendSeq uint64
	recvSeq uint64 // the sequence number the next record must carry
}

// NewPair derives both endpoints of a session from a KD key block
// (enc ‖ mac, as produced by the protocols in internal/core). It keys
// one aead Keys with the record key and mac; both channels share it
// read-only (see the package comment). The policy applies to both
// directions.
func NewPair(keyBlock []byte, policy Policy) (*Channel, *Channel, error) {
	if len(keyBlock) != kdf.SessionKeySize+kdf.MACKeySize {
		return nil, nil, fmt.Errorf("session: key block size %d, want %d",
			len(keyBlock), kdf.SessionKeySize+kdf.MACKeySize)
	}
	recordKey, err := kdf.HKDF(keyBlock[:kdf.SessionKeySize], nil, []byte("session-record-stream"), kdf.SessionKeySize)
	if err != nil {
		return nil, nil, fmt.Errorf("session: record key: %w", err)
	}
	keys, err := aead.New(recordKey, keyBlock[kdf.SessionKeySize:])
	if err != nil {
		return nil, nil, fmt.Errorf("session: record keys: %w", err)
	}
	mk := func(dir Direction) *Channel {
		return &Channel{
			dir:     dir,
			keys:    keys,
			policy:  policy,
			started: time.Now(),
			now:     time.Now,
		}
	}
	return mk(DirAtoB), mk(DirBtoA), nil
}

// SetClock injects a time source for tests.
func (c *Channel) SetClock(now func() time.Time) {
	c.now = now
	c.started = now()
}

// RecordsSent returns the number of records protected so far.
func (c *Channel) RecordsSent() uint64 { return c.sendSeq }

// expired checks the policy.
func (c *Channel) expired() bool {
	if c.policy.MaxRecords > 0 && (c.sendSeq >= c.policy.MaxRecords || c.recvSeq >= c.policy.MaxRecords) {
		return true
	}
	if c.policy.MaxAge > 0 && c.now().Sub(c.started) > c.policy.MaxAge {
		return true
	}
	return false
}

// NeedsRekey reports whether the policy has expired.
func (c *Channel) NeedsRekey() bool { return c.expired() }

// Seal protects one application record:
//
//	seq(8) ‖ dir(1) ‖ AES-128-CTR(record key, IV = seq ‖ dir ‖ 0⁷, plaintext) ‖ tag(16)
//
// where tag is HMAC-SHA-256(mac, "session-record" ‖ seq ‖ dir ‖ ct)
// truncated to 16 bytes. The header is bound into both the IV and the
// tag, so records cannot be reordered, reflected, truncated or
// replayed. Plaintexts of any length are accepted.
func (c *Channel) Seal(plaintext []byte) ([]byte, error) {
	if c.expired() {
		return nil, ErrRekeyRequired
	}
	body := recordHeader + len(plaintext)
	out := make([]byte, body+tagSize)
	binary.BigEndian.PutUint64(out[:8], c.sendSeq)
	out[8] = byte(c.dir)
	c.crypt(out[recordHeader:body], plaintext, out[:recordHeader])
	tag := c.tag(out[:body])
	copy(out[body:], tag[:tagSize])

	c.sendSeq++
	return out, nil
}

// Open verifies and decrypts a record produced by the peer channel.
// Records must arrive strictly in order; a record that does not carry
// the next sequence number is rejected as a replay.
func (c *Channel) Open(record []byte) ([]byte, error) {
	if c.expired() {
		return nil, ErrRekeyRequired
	}
	if len(record) < Overhead {
		return nil, ErrMalformed
	}
	seq := binary.BigEndian.Uint64(record[:8])
	dir := Direction(record[8])
	if dir != c.dir.other() {
		return nil, fmt.Errorf("%w: direction %#x", ErrMalformed, byte(dir))
	}

	body := record[:len(record)-tagSize]
	tag := c.tag(body)
	if !hmac.Equal(tag[:tagSize], record[len(record)-tagSize:]) {
		return nil, ErrAuth
	}
	// Authenticate BEFORE the replay check so an attacker cannot probe
	// the receive state with forged headers; but reject replays before
	// decrypting. A gap means loss or reordering upstream.
	if seq < c.recvSeq {
		return nil, ErrReplay
	}
	if seq > c.recvSeq {
		return nil, fmt.Errorf("%w: got seq %d, want %d", ErrReplay, seq, c.recvSeq)
	}

	pt := make([]byte, len(body)-recordHeader)
	c.crypt(pt, body[recordHeader:], body[:recordHeader])
	c.recvSeq++
	return pt, nil
}

// crypt XORs src with the keystream of the record whose header is hdr
// into dst: AES-128-CTR under the record key with IV = hdr ‖ 0⁷. Empty
// records (keep-alives) need no keystream.
func (c *Channel) crypt(dst, src, hdr []byte) {
	if len(src) == 0 {
		return
	}
	var iv [aead.NonceSize]byte
	copy(iv[:], hdr)
	c.keys.XORKeyStream(dst, src, iv[:])
}

// tag returns the record MAC of body, before truncation.
func (c *Channel) tag(body []byte) [sha256.Size]byte {
	return c.keys.MAC([]byte("session-record"), body)
}
