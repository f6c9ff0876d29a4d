// Package ecqv implements the Elliptic Curve Qu–Vanstone implicit
// certificate scheme (SEC 4, Certicom 2013), the certificate substrate
// of the paper.
//
// An implicit certificate does not carry a signature or an explicit
// public key. It carries a *public-key reconstruction point* P_U from
// which any relying party derives the subject's public key as
//
//	Q_U = H(Cert_U) · P_U + Q_CA            (paper equation (1))
//
// and from which the subject derives the matching private key as
//
//	d_U = H(Cert_U) · k_U + r  (mod n)
//
// where k_U is the subject's request secret and r the CA's private
// reconstruction value. A certificate is therefore "verified" by using
// it: a forged certificate reconstructs a key nobody can sign with.
// Security of ECDSA under ECQV-reconstructed keys against passive
// adversaries is due to Brown et al. (ePrint 2009/620), which the paper
// relies on.
package ecqv

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"time"

	"repro/internal/conc"
	"repro/internal/ec"
)

// IDSize is the fixed identity size used throughout the protocol stack
// (the paper's Table II assumes 16-byte IDs).
const IDSize = 16

// ID is a fixed-size device or CA identity.
type ID [IDSize]byte

// NewID builds an ID from a string, truncating or zero-padding to
// IDSize bytes.
func NewID(s string) ID {
	var id ID
	copy(id[:], s)
	return id
}

func (id ID) String() string {
	end := len(id)
	for end > 0 && id[end-1] == 0 {
		end--
	}
	return string(id[:end])
}

// KeyUsage flags declared inside a certificate.
type KeyUsage byte

const (
	// UsageKeyAgreement permits static and ephemeral ECDH.
	UsageKeyAgreement KeyUsage = 1 << iota
	// UsageSignature permits ECDSA signing (required for STS and
	// S-ECDSA authentication responses).
	UsageSignature
)

// Request is the public half of a certificate request: the subject's
// ephemeral commitment R_U = k_U·G sent to the CA together with its
// identity.
type Request struct {
	SubjectID ID
	R         ec.Point
}

// RequestSecret is the private half, retained by the subject until the
// CA responds.
type RequestSecret struct {
	curve *ec.Curve
	k     *big.Int
}

// NewRequest draws the request secret k_U and returns the request pair.
// A nil rng selects crypto/rand.
func NewRequest(curve *ec.Curve, subjectID ID, rng io.Reader) (Request, *RequestSecret, error) {
	k, err := curve.RandomScalar(rng)
	if err != nil {
		return Request{}, nil, fmt.Errorf("ecqv: request: %w", err)
	}
	return Request{SubjectID: subjectID, R: curve.ScalarBaseMult(k)},
		&RequestSecret{curve: curve, k: k}, nil
}

// Response is the CA's answer: the certificate plus the private-key
// reconstruction value r (confidential to the subject).
type Response struct {
	Cert *Certificate
	R    *big.Int
}

// CA is an ECQV certificate authority. Issuance is safe for
// concurrent use: the randomness source and the serial counter are the
// only mutable state, and both are guarded internally, so any number
// of Issue calls (or one IssueBatch) may run in parallel.
type CA struct {
	Curve *ec.Curve
	ID    ID
	priv  *big.Int
	pub   ec.Point
	rand  io.Reader

	// mu guards the randomness source (deterministic test readers are
	// not concurrency-safe) and serial allocation.
	mu         sync.Mutex
	nextSerial uint64
}

// NewCA creates a CA with a fresh key pair. A nil rng selects
// crypto/rand.
func NewCA(curve *ec.Curve, id ID, rng io.Reader) (*CA, error) {
	d, q, err := curve.GenerateKeyPair(rng)
	if err != nil {
		return nil, fmt.Errorf("ecqv: CA key: %w", err)
	}
	return &CA{Curve: curve, ID: id, priv: d, pub: q, rand: rng, nextSerial: 1}, nil
}

// NewCAFromKey restores a CA from a persisted private scalar (e.g. a
// key file), validating its range.
func NewCAFromKey(curve *ec.Curve, id ID, priv *big.Int, nextSerial uint64, rng io.Reader) (*CA, error) {
	if priv == nil || priv.Sign() <= 0 || priv.Cmp(curve.N) >= 0 {
		return nil, errors.New("ecqv: CA private key out of range")
	}
	d := new(big.Int).Set(priv)
	if nextSerial == 0 {
		nextSerial = 1
	}
	return &CA{
		Curve: curve, ID: id, priv: d, pub: curve.ScalarBaseMult(d),
		rand: rng, nextSerial: nextSerial,
	}, nil
}

// PrivateKey exposes the CA scalar for persistence (key files). Handle
// with care.
func (ca *CA) PrivateKey() *big.Int { return new(big.Int).Set(ca.priv) }

// NextSerial returns the serial number the next issuance will use.
func (ca *CA) NextSerial() uint64 {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.nextSerial
}

// randomScalar draws an issuance nonce under the CA lock, so
// concurrent issuances never race on the randomness source.
func (ca *CA) randomScalar() (*big.Int, error) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.Curve.RandomScalar(ca.rand)
}

// takeSerial allocates the next certificate serial.
func (ca *CA) takeSerial() uint64 {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	s := ca.nextSerial
	ca.nextSerial++
	return s
}

// returnSerial hands an unused serial back after a failed issuance.
// Best effort: it only rolls back while no later serial has been
// allocated, so concurrent issuance can still leave gaps (which is
// harmless — serials need only be unique).
func (ca *CA) returnSerial(s uint64) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if ca.nextSerial == s+1 {
		ca.nextSerial = s
	}
}

// PublicKey returns the CA public key Q_CA that every relying party
// must hold to reconstruct subject keys.
func (ca *CA) PublicKey() ec.Point { return ca.pub.Clone() }

// IssueParams carries the certificate attributes chosen by the CA at
// issuance time.
type IssueParams struct {
	ValidFrom time.Time
	ValidTo   time.Time
	KeyUsage  KeyUsage
}

// Issue runs the CA side of ECQV certificate generation (SEC 4 §3.4):
//
//	k  ∈R [1, n−1]
//	P_U = R_U + k·G                    (reconstruction point)
//	Cert_U = Encode(P_U, ID_U, meta)
//	e  = H_n(Cert_U)
//	r  = e·k + d_CA  (mod n)
//
// It returns the certificate and r. Issue fails if the request point is
// invalid (off-curve or infinity), the SEC 4 guard against invalid-
// point attacks on the CA.
func (ca *CA) Issue(req Request, params IssueParams) (*Response, error) {
	if req.R.IsInfinity() || !ca.Curve.IsOnCurve(req.R) {
		return nil, errors.New("ecqv: request point invalid")
	}
	if !params.ValidTo.After(params.ValidFrom) {
		return nil, errors.New("ecqv: certificate validity window is empty")
	}

	serial := ca.takeSerial()
	for attempt := 0; attempt < 64; attempt++ {
		k, err := ca.randomScalar()
		if err != nil {
			ca.returnSerial(serial)
			return nil, fmt.Errorf("ecqv: issuance nonce: %w", err)
		}
		pu := ca.Curve.Add(req.R, ca.Curve.ScalarBaseMult(k))
		if pu.IsInfinity() {
			continue // R_U = −k·G; astronomically unlikely, retry
		}
		cert := &Certificate{
			Curve:     ca.Curve,
			Version:   CertVersion,
			Serial:    serial,
			SubjectID: req.SubjectID,
			IssuerID:  ca.ID,
			ValidFrom: params.ValidFrom.Unix(),
			ValidTo:   params.ValidTo.Unix(),
			KeyUsage:  params.KeyUsage,
			PubRecon:  pu,
		}
		e := cert.HashToScalar()
		if e.Sign() == 0 {
			continue // H_n(Cert) ≡ 0 would erase the subject's key share
		}
		r := new(big.Int).Mul(e, k)
		r.Add(r, ca.priv)
		r.Mod(r, ca.Curve.N)

		return &Response{Cert: cert, R: r}, nil
	}
	ca.returnSerial(serial)
	return nil, errors.New("ecqv: issuance did not converge")
}

// IssueBatch amortizes issuance over many requests: the per-curve
// base-point table is warmed once up front (so workers share the
// cached precomputation instead of serializing on its lazy build), and
// the heavy point arithmetic fans out over a pool of at most
// parallelism workers (GOMAXPROCS when ≤ 0). Responses align with
// reqs; per-request failures are joined into the returned error while
// the remaining requests still complete.
func (ca *CA) IssueBatch(reqs []Request, params IssueParams, parallelism int) ([]*Response, error) {
	ca.Curve.ScalarBaseMult(big.NewInt(1)) // warm the shared base table

	out := make([]*Response, len(reqs))
	errs := make([]error, len(reqs))
	conc.ForEach(len(reqs), parallelism, func(i int) {
		resp, err := ca.Issue(reqs[i], params)
		if err != nil {
			errs[i] = fmt.Errorf("ecqv: batch request %d (%s): %w", i, reqs[i].SubjectID, err)
			return
		}
		out[i] = resp
	})
	return out, errors.Join(errs...)
}

// HashToScalar computes e = H_n(Cert) over the certificate's canonical
// encoding: SHA-256 truncated into the scalar field, the same mapping
// used by ECDSA (SEC 4 §3.5).
func (cert *Certificate) HashToScalar() *big.Int {
	digest := sha256.Sum256(cert.Encode())
	return cert.Curve.HashToInt(digest[:])
}

// ReconstructPrivateKey runs the subject side of issuance:
// d_U = H(Cert)·k_U + r (mod n), then confirms Q_U = d_U·G matches the
// public key any relying party would extract — the SEC 4 §3.4
// consistency check that detects a corrupted or substituted response.
func ReconstructPrivateKey(sec *RequestSecret, resp *Response, caPub ec.Point) (*big.Int, ec.Point, error) {
	if sec == nil || resp == nil || resp.Cert == nil || resp.R == nil {
		return nil, ec.Point{}, errors.New("ecqv: nil reconstruction input")
	}
	curve := sec.curve
	if resp.R.Sign() < 0 || resp.R.Cmp(curve.N) >= 0 {
		return nil, ec.Point{}, errors.New("ecqv: reconstruction value out of range")
	}
	e := resp.Cert.HashToScalar()
	d := new(big.Int).Mul(e, sec.k)
	d.Add(d, resp.R)
	d.Mod(d, curve.N)
	if d.Sign() == 0 {
		return nil, ec.Point{}, errors.New("ecqv: degenerate private key")
	}

	q, err := ExtractPublicKey(resp.Cert, caPub)
	if err != nil {
		return nil, ec.Point{}, err
	}
	if !curve.ScalarBaseMult(d).Equal(q) {
		return nil, ec.Point{}, errors.New("ecqv: reconstructed key does not match certificate")
	}
	return d, q, nil
}

// ExtractPublicKey implements the relying-party computation — the
// paper's equation (1):
//
//	Q_X = Hash(Cert_X) · Decode(Cert_X) + Q_CA
//
// No signature check occurs here; authenticity is implicit and is only
// established once the subject proves possession of d_X (e.g. by the
// STS signature exchange).
func ExtractPublicKey(cert *Certificate, caPub ec.Point) (ec.Point, error) {
	if cert == nil {
		return ec.Point{}, errors.New("ecqv: nil certificate")
	}
	curve := cert.Curve
	if cert.PubRecon.IsInfinity() || !curve.IsOnCurve(cert.PubRecon) {
		return ec.Point{}, errors.New("ecqv: certificate reconstruction point invalid")
	}
	if caPub.IsInfinity() || !curve.IsOnCurve(caPub) {
		return ec.Point{}, errors.New("ecqv: CA public key invalid")
	}
	e := cert.HashToScalar()
	q := curve.Add(curve.ScalarMult(cert.PubRecon, e), caPub)
	if q.IsInfinity() {
		return ec.Point{}, errors.New("ecqv: extracted public key is the identity")
	}
	return q, nil
}

// SelfCertificate returns the CA's own certificate: serial 0, subject
// and issuer both the CA's ID, and the CA public key Q_CA published
// directly as PubRecon. It is a degenerate trust-anchor record, not an
// implicit certificate, because chains are one hop deep: the CA
// certifies each device itself, and hierarchical chains are out of the
// paper's scope. Exposed for completeness of the CA lifecycle.
func (ca *CA) SelfCertificate(params IssueParams) (*Certificate, error) {
	cert := &Certificate{
		Curve:     ca.Curve,
		Version:   CertVersion,
		Serial:    0,
		SubjectID: ca.ID,
		IssuerID:  ca.ID,
		ValidFrom: params.ValidFrom.Unix(),
		ValidTo:   params.ValidTo.Unix(),
		KeyUsage:  params.KeyUsage,
		PubRecon:  ca.pub.Clone(), // degenerate: Q_CA published directly
	}
	return cert, nil
}
