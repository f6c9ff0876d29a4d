// Package ecqvsts is the public API of the ECQV-STS reproduction: a
// library for establishing dynamic (forward-secret) secure sessions
// between embedded devices that authenticate with ECQV implicit
// certificates.
//
// The typical lifecycle mirrors the paper's Figure 1:
//
//	authority, _ := ecqvsts.NewAuthority()
//	alice, _ := authority.Enroll("alice")      // stages 1–2: derive certificate
//	bob, _ := authority.Enroll("bob")
//	session, _ := ecqvsts.Establish(ecqvsts.STS, alice, bob) // stage 3
//	ct, _ := session.Seal([]byte("battery status: ok"), nil)
//
// At fleet scale the same stages batch and parallelize: EnrollBatch
// provisions many devices through one worker pool, and EstablishMany
// drives many handshakes concurrently.
//
// Establish selects among the paper's key-derivation protocols. STS
// (the paper's contribution) is the only dynamic KD: every session
// derives an independent ephemeral key, so a later compromise of
// device credentials does not expose recorded traffic. The baselines
// (SECDSA, SCIANC, PORAMB) are provided for comparison and for
// running the paper's experiments.
package ecqvsts

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/aead"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/hwmodel"
	"repro/internal/kdf"
	"repro/internal/session"
)

// KD selects a key-derivation protocol.
type KD int

const (
	// STS is the paper's dynamic key derivation: Station-to-Station
	// ephemeral ECDH with ECDSA authentication under ECQV keys.
	STS KD = iota
	// STSOptI is STS with the Opt. I pipelining (§IV-C).
	STSOptI
	// STSOptII is STS with the Opt. II pipelining.
	STSOptII
	// SECDSA is the static ECDSA baseline (Basic et al.).
	SECDSA
	// SECDSAExt is S-ECDSA with finished messages.
	SECDSAExt
	// SCIANC is the symmetric-authentication baseline of
	// Sciancalepore et al.
	SCIANC
	// PORAMB is the pre-shared-MAC baseline of Porambage et al.
	PORAMB
)

// protocol materializes the protocol implementation.
func (k KD) protocol() (core.Protocol, error) {
	switch k {
	case STS:
		return core.NewSTS(core.OptNone), nil
	case STSOptI:
		return core.NewSTS(core.OptI), nil
	case STSOptII:
		return core.NewSTS(core.OptII), nil
	case SECDSA:
		return core.NewSECDSA(false), nil
	case SECDSAExt:
		return core.NewSECDSA(true), nil
	case SCIANC:
		return core.NewSCIANC(), nil
	case PORAMB:
		return core.NewPORAMB(), nil
	}
	return nil, fmt.Errorf("ecqvsts: unknown protocol %d", int(k))
}

// String implements fmt.Stringer.
func (k KD) String() string {
	p, err := k.protocol()
	if err != nil {
		return "unknown"
	}
	return p.Name()
}

// Dynamic reports whether the protocol provides per-session ephemeral
// keys (perfect forward secrecy).
func (k KD) Dynamic() bool {
	p, err := k.protocol()
	if err != nil {
		return false
	}
	return p.Dynamic()
}

// KDs lists every available protocol.
func KDs() []KD { return []KD{STS, STSOptI, STSOptII, SECDSA, SECDSAExt, SCIANC, PORAMB} }

// Authority is the central certificate authority of the network
// (Figure 1's "Central Authority").
type Authority struct {
	net *core.Network
}

// Option configures an Authority.
type Option func(*options)

type options struct {
	curve *ec.Curve
	rand  io.Reader
	err   error // an option that could not be applied
}

// WithCurve selects the elliptic curve by name: "secp256r1" (the
// default, also "P-256" or "p256"), "secp224r1" ("P-224", "p224") or
// "secp192r1" ("P-192", "p192"). NewAuthority fails on any other name.
func WithCurve(name string) Option {
	return func(o *options) {
		o.curve, o.err = ec.CurveByName(name)
	}
}

// WithRand injects a deterministic randomness source (tests,
// reproducible experiments).
func WithRand(r io.Reader) Option {
	return func(o *options) { o.rand = r }
}

// NewAuthority creates a CA on secp256r1 (overridable via options). It
// fails on an option that cannot be applied, such as an unknown curve.
func NewAuthority(opts ...Option) (*Authority, error) {
	o := &options{curve: ec.P256()}
	for _, fn := range opts {
		if fn(o); o.err != nil {
			return nil, o.err
		}
	}
	net, err := core.NewNetwork(o.curve, o.rand)
	if err != nil {
		return nil, err
	}
	return &Authority{net: net}, nil
}

// Device is an enrolled endpoint holding an ECQV certificate and its
// reconstructed private key.
type Device struct {
	party *core.Party
}

// Enroll provisions a device: certificate request, ECQV issuance, and
// private-key reconstruction.
func (a *Authority) Enroll(name string) (*Device, error) {
	p, err := a.net.Provision(name)
	if err != nil {
		return nil, err
	}
	return &Device{party: p}, nil
}

// EnrollBatch provisions many devices concurrently: certificate
// requests, batched ECQV issuance and private-key reconstruction fan
// out over a worker pool sized to GOMAXPROCS, amortizing the per-curve
// precomputation across the whole batch. Devices align with names; if
// any enrollment fails, the per-name errors are joined into the
// returned error and the corresponding slots are nil.
func (a *Authority) EnrollBatch(names []string) ([]*Device, error) {
	parties, err := a.net.ProvisionBatch(names, 0)
	devices := make([]*Device, len(parties))
	for i, p := range parties {
		if p != nil {
			devices[i] = &Device{party: p}
		}
	}
	return devices, err
}

// EnrollPair provisions two devices and installs the pairwise
// pre-shared key required by the PORAMB baseline.
func (a *Authority) EnrollPair(nameA, nameB string) (*Device, *Device, error) {
	pa, pb, err := a.net.Pair(nameA, nameB)
	if err != nil {
		return nil, nil, err
	}
	return &Device{party: pa}, &Device{party: pb}, nil
}

// ID returns the device identity string.
func (d *Device) ID() string { return d.party.ID.String() }

// Certificate returns the device's encoded implicit certificate
// (101 bytes on secp256r1).
func (d *Device) Certificate() []byte { return d.party.Cert.Encode() }

// Session is an established secure session.
type Session struct {
	// KD is the protocol that derived this session.
	KD KD
	// Dynamic records whether the key is ephemeral.
	Dynamic bool
	// Steps and Bytes summarize the handshake cost (Table II view).
	Steps int
	Bytes int

	keyBlock []byte     // enc ‖ mac, for Channels
	keys     *aead.Keys // enc and mac, keyed once for Seal and Open
}

// Establish runs the selected KD protocol between two enrolled devices
// and returns the shared session.
func Establish(kd KD, a, b *Device) (*Session, error) {
	if a == nil || b == nil {
		return nil, errors.New("ecqvsts: nil device")
	}
	p, err := kd.protocol()
	if err != nil {
		return nil, err
	}
	res, err := p.Run(a.party, b.party)
	if err != nil {
		return nil, err
	}
	key, err := res.SessionKey()
	if err != nil {
		return nil, err
	}
	if len(key) != kdf.SessionKeySize+kdf.MACKeySize {
		return nil, fmt.Errorf("ecqvsts: unexpected key block size %d", len(key))
	}
	keys, err := aead.New(key[:kdf.SessionKeySize], key[kdf.SessionKeySize:])
	if err != nil {
		return nil, err
	}
	return &Session{
		KD:       kd,
		Dynamic:  p.Dynamic(),
		Steps:    res.Steps(),
		Bytes:    res.TotalBytes(),
		keyBlock: key,
		keys:     keys,
	}, nil
}

// EstablishMany runs the selected KD protocol from one device to many
// peers concurrently, through a pool of at most parallelism workers
// (GOMAXPROCS when ≤ 0) — the fleet-scale establishment path (a BMS
// keying every EVCC it will talk to, a gateway keying its sensor
// network). Sessions align with peers; per-peer failures are joined
// into the returned error and leave their slot nil, so one bad peer
// does not abort the rest of the fleet.
func EstablishMany(kd KD, self *Device, peers []*Device, parallelism int) ([]*Session, error) {
	if self == nil {
		return nil, errors.New("ecqvsts: nil device")
	}
	if _, err := kd.protocol(); err != nil {
		return nil, err
	}
	sessions := make([]*Session, len(peers))
	errs := make([]error, len(peers))
	conc.ForEach(len(peers), parallelism, func(i int) {
		s, err := Establish(kd, self, peers[i])
		if err != nil {
			errs[i] = fmt.Errorf("ecqvsts: peer %d: %w", i, err)
			return
		}
		sessions[i] = s
	})
	return sessions, errors.Join(errs...)
}

// Seal encrypts and authenticates application data under the session
// key (AES-128-CTR + HMAC-SHA-256 encrypt-then-MAC) with a fresh nonce
// from crypto/rand.
func (s *Session) Seal(plaintext, aad []byte) ([]byte, error) {
	return s.keys.Seal(rand.Reader, plaintext, aad)
}

// Open verifies and decrypts a Seal output.
func (s *Session) Open(sealed, aad []byte) ([]byte, error) {
	return s.keys.Open(sealed, aad)
}

// Overhead returns the ciphertext expansion of Seal in bytes.
func (s *Session) Overhead() int { return aead.Overhead }

// Policy bounds the lifetime of a channel key (records protected,
// wall-clock age); see Channels. The zero value imposes no limit.
// Channels always demand in-order delivery.
type Policy = session.Policy

// ErrRekeyRequired is returned by a channel's Seal and Open once its
// Policy has tripped; establish a fresh session to continue.
var ErrRekeyRequired = session.ErrRekeyRequired

// Channels opens the bidirectional record layer over this session: a
// channel pair with per-direction sequence numbers, replay rejection
// and a key-lifetime policy. When the policy trips, both channels
// return ErrRekeyRequired and the caller re-runs Establish — the
// dynamic-rekey loop the paper advocates.
func (s *Session) Channels(policy Policy) (initiator, responder *session.Channel, err error) {
	return session.NewPair(s.keyBlock, policy)
}

// EstimateTime predicts the handshake processing time of a protocol on
// one of the paper's device models ("ATmega2560", "S32K144",
// "STM32F767", "RaspberryPi4"), both endpoints on the same device —
// the Table I quantity.
func EstimateTime(kd KD, device string) (time.Duration, error) {
	p, err := kd.protocol()
	if err != nil {
		return 0, err
	}
	model, err := hwmodel.New()
	if err != nil {
		return 0, err
	}
	dev, err := model.Device(device)
	if err != nil {
		return 0, err
	}
	ms, err := model.ProtocolMS(p, dev, dev)
	if err != nil {
		return 0, err
	}
	return time.Duration(ms * float64(time.Millisecond)), nil
}

// Devices lists the supported device model names.
func Devices() []string {
	model, err := hwmodel.New()
	if err != nil {
		return nil
	}
	out := make([]string, 0, 4)
	for _, d := range model.Devices() {
		out = append(out, d.Name)
	}
	return out
}
