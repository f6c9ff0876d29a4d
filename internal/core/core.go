// Package core implements the paper's contribution and its baselines:
// key-derivation (KD) and session-establishment protocols for ECQV
// implicit-certificate architectures.
//
// Four protocol families are provided, matching §V-A of the paper:
//
//   - STS — the paper's dynamic key derivation (DKD): Station-to-
//     Station ephemeral Diffie–Hellman with ECDSA authentication
//     under ECQV-reconstructed keys (Fig. 2, Algorithms 1–2), plus
//     the pipelining optimisation variants Opt. I and Opt. II (§IV-C).
//   - S-ECDSA — the static ECDSA KD of Basic et al. [5], plus the
//     "ext." finished-message variant.
//   - SCIANC — Sciancalepore et al. [4]: implicit certificates with
//     nonce-diversified static KD and MAC authentication.
//   - PORAMB — Porambage et al. [3]: certificate exchange with
//     pre-embedded pairwise MAC keys and static KD.
//
// Every run executes the real cryptography (over internal/ec etc.),
// records a primitive-level Trace for the hardware timing model, and
// returns the full wire transcript for byte-exact overhead accounting
// (Table II) and for the attacker simulations of the security analysis
// (Table III).
package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"repro/internal/ec"
	"repro/internal/ecqv"
)

// PartyRole distinguishes the two ends of a session run.
type PartyRole int

const (
	// RoleA is the initiator ("Alice", e.g. the EVCC requesting a
	// session).
	RoleA PartyRole = iota
	// RoleB is the responder ("Bob", e.g. the BMS).
	RoleB
)

// String returns the role's transcript letter, "A" or "B".
func (r PartyRole) String() string {
	if r == RoleA {
		return "A"
	}
	return "B"
}

// Party holds one participant's long-term credentials: its ECQV
// certificate and reconstructed private key, the CA public key, and —
// for the symmetric baselines — pre-shared keys.
type Party struct {
	ID    ecqv.ID
	Curve *ec.Curve

	// Implicit-certificate credentials.
	Cert  *ecqv.Certificate
	Priv  *big.Int // ECQV-reconstructed private key
	CAPub ec.Point

	// PairwiseKey is the pre-embedded per-peer authentication key
	// required by PORAMB ("each node possesses from each other the
	// authentication key").
	PairwiseKey []byte

	// Rand supplies ephemeral randomness; nil selects crypto/rand.
	Rand io.Reader

	// cache memoizes peer public-key extraction and verification
	// tables across this party's handshakes; created lazily and
	// lock-free by KeyCache, so concurrent fleet handshakes share no
	// cross-party serialization point. Parties are passed by pointer;
	// use Clone to derive credential variants.
	cache atomic.Pointer[KeyCache]
}

// KeyCache returns the party's lazily created per-peer key cache.
// Safe for concurrent use; racing initializers converge on one cache.
func (p *Party) KeyCache() *KeyCache {
	if kc := p.cache.Load(); kc != nil {
		return kc
	}
	kc := NewKeyCache()
	if p.cache.CompareAndSwap(nil, kc) {
		return kc
	}
	return p.cache.Load()
}

// Clone returns a copy of the party's credentials with its own empty
// key cache — the way to derive credential variants (a stripped
// certificate, a mismatched key) for tests and attack simulations,
// since Party itself must not be copied by value.
func (p *Party) Clone() *Party {
	return &Party{
		ID:          p.ID,
		Curve:       p.Curve,
		Cert:        p.Cert,
		Priv:        p.Priv,
		CAPub:       p.CAPub,
		PairwiseKey: p.PairwiseKey,
		Rand:        p.Rand,
	}
}

// CloneWithRand returns a credential copy drawing ephemeral
// randomness from rng, sharing the receiver's key cache (a pure,
// concurrency-safe memo, so sharing changes no observable protocol
// behaviour). Deterministic concurrent experiments use it to give
// each handshake attempt a private randomness stream: parties
// provisioned from one Network otherwise share the network rng, whose
// draw order — and therefore every ephemeral — would depend on
// goroutine scheduling.
func (p *Party) CloneWithRand(rng io.Reader) *Party {
	q := p.Clone()
	q.Rand = rng
	q.cache.Store(p.KeyCache())
	return q
}

// Field is one named datum inside a wire message, sized exactly as the
// paper's Table II accounts it.
type Field struct {
	Name  string
	Bytes []byte
}

// WireMessage is one transmitted protocol message.
type WireMessage struct {
	From  PartyRole
	Label string // Table II step label: "A1", "B1", ...
	Field []Field
}

// Len returns the application-payload length of the message — the
// quantity Table II sums.
func (m WireMessage) Len() int {
	n := 0
	for _, f := range m.Field {
		n += len(f.Bytes)
	}
	return n
}

// Get returns a named field's bytes, or nil.
func (m WireMessage) Get(name string) []byte {
	for _, f := range m.Field {
		if f.Name == name {
			return f.Bytes
		}
	}
	return nil
}

// Result is the outcome of one protocol run.
type Result struct {
	Protocol string

	// Session keys derived by each side; a correct run has KeyA equal
	// to KeyB.
	KeyA, KeyB []byte

	// Transcript is every message in transmission order.
	Transcript []WireMessage

	// Trace is the primitive-level execution record for the hardware
	// timing model.
	Trace *Trace
}

// SessionKey returns the agreed key after checking both sides match.
func (r *Result) SessionKey() ([]byte, error) {
	if len(r.KeyA) == 0 || !bytes.Equal(r.KeyA, r.KeyB) {
		return nil, errors.New("core: session keys disagree")
	}
	return r.KeyA, nil
}

// TotalBytes sums the transcript payload sizes (the Table II total).
func (r *Result) TotalBytes() int {
	n := 0
	for _, m := range r.Transcript {
		n += m.Len()
	}
	return n
}

// Steps returns the number of transmitted messages.
func (r *Result) Steps() int { return len(r.Transcript) }

// Protocol is a two-party KD protocol.
type Protocol interface {
	// Name is the identifier used in tables and figures
	// ("STS", "S-ECDSA", ...).
	Name() string
	// Run executes a complete session establishment between a and b.
	Run(a, b *Party) (*Result, error)
	// Spec returns the static wire-format specification used for the
	// Table II overhead accounting.
	Spec() []StepSpec
	// Dynamic reports whether the protocol is a dynamic key derivation
	// (DKD) with per-session ephemeral secrets.
	Dynamic() bool
}

// StepSpec is the static description of one protocol message for
// overhead accounting.
type StepSpec struct {
	Label  string
	Fields []FieldSpec
}

// FieldSpec names a field and its size in bytes.
type FieldSpec struct {
	Name string
	Size int
}

// Size sums the field sizes of one step.
func (s StepSpec) Size() int {
	n := 0
	for _, f := range s.Fields {
		n += f.Size
	}
	return n
}

// SpecTotal sums a full protocol specification.
func SpecTotal(spec []StepSpec) int {
	n := 0
	for _, s := range spec {
		n += s.Size()
	}
	return n
}

// Protocols returns every protocol variant evaluated in the paper's
// Table I, in its row order.
func Protocols() []Protocol {
	return []Protocol{
		NewSECDSA(false),
		NewSECDSA(true),
		NewSTS(OptNone),
		NewSTS(OptI),
		NewSTS(OptII),
		NewSCIANC(),
		NewPORAMB(),
	}
}

// common wire sizes (P-256, §V-A bit sizes)
const (
	nonceSize = 32 // 256-bit nonces
	macSize   = 32 // HMAC-SHA-256 tags
	helloSize = 32 // PORAMB hello payload
	ackSize   = 1
	sigSize   = 64 // raw r‖s ECDSA signature
)

// encodePointRaw serializes a point as raw X‖Y (64 bytes on P-256),
// the "XG(64)" encoding of Table II.
func encodePointRaw(c *ec.Curve, p ec.Point) []byte {
	out := make([]byte, 2*c.ByteLen())
	p.X.FillBytes(out[:c.ByteLen()])
	p.Y.FillBytes(out[c.ByteLen():])
	return out
}

// decodePointRaw parses a raw X‖Y point and validates curve membership
// (coordinates below p included). Rejections wrap ec.ErrInvalidPoint.
func decodePointRaw(c *ec.Curve, data []byte) (ec.Point, error) {
	if len(data) != 2*c.ByteLen() {
		return ec.Point{}, fmt.Errorf("%w: raw point length %d, want %d", ec.ErrInvalidPoint, len(data), 2*c.ByteLen())
	}
	p := ec.Point{
		X: new(big.Int).SetBytes(data[:c.ByteLen()]),
		Y: new(big.Int).SetBytes(data[c.ByteLen():]),
	}
	if !c.IsOnCurve(p) {
		return ec.Point{}, fmt.Errorf("%w: raw point not on %s", ec.ErrInvalidPoint, c.Name)
	}
	return p, nil
}

// checkParties validates that both parties are fully provisioned on
// the same curve.
func checkParties(a, b *Party, needCerts, needPSK bool) error {
	if a == nil || b == nil {
		return errors.New("core: nil party")
	}
	if a.Curve == nil || a.Curve != b.Curve {
		return errors.New("core: parties must share a curve")
	}
	if needCerts {
		for _, p := range []*Party{a, b} {
			if p.Cert == nil || p.Priv == nil || p.CAPub.IsInfinity() {
				return fmt.Errorf("core: party %s lacks certificate credentials", p.ID)
			}
		}
	}
	if needPSK {
		if len(a.PairwiseKey) == 0 || !bytes.Equal(a.PairwiseKey, b.PairwiseKey) {
			return errors.New("core: parties lack a shared pairwise key")
		}
	}
	return nil
}
