// Package ecdsa implements the Elliptic Curve Digital Signature
// Algorithm over the internal/ec substrate, including RFC 6979
// deterministic nonce generation and low-S normalisation.
//
// It exists (rather than using crypto/ecdsa) because the ECQV scheme
// needs signatures verified against *reconstructed* public keys held as
// raw curve points, and the protocol stack needs fixed-width raw r‖s
// encodings for the byte-exact wire-overhead reproduction of the
// paper's Table II.
package ecdsa

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/ec"
	"repro/internal/kdf"
)

// PrivateKey is an ECDSA signing key.
type PrivateKey struct {
	Curve *ec.Curve
	D     *big.Int
	Q     ec.Point // public key D·G
}

// PublicKey is an ECDSA verification key. ECQV reconstructed keys are
// wrapped in this type for verification.
type PublicKey struct {
	Curve *ec.Curve
	Q     ec.Point

	// table is the optional precomputed signed comb for Q (an
	// ec.MultTable), installed by Precompute. It cuts every
	// verification's u2·Q chain from a full-length wNAF to a quarter
	// of the doublings plus mixed additions against the cached table —
	// worthwhile whenever the same key verifies more than once (fleet
	// rekeys, group key distribution).
	table *ec.MultTable
}

// Precompute builds and attaches the scalar-multiplication table for
// Q (ec.NewMultTable's signed comb), returning the key for chaining.
// The build costs about a ScalarMult's worth of doublings, which the
// first verification against the table earns back. Call it once at
// construction time; a PublicKey must not be shared concurrently while
// Precompute runs.
func (p *PublicKey) Precompute() *PublicKey {
	if p.table == nil && !p.Q.IsInfinity() {
		p.table = p.Curve.NewMultTable(p.Q)
	}
	return p
}

// Signature is a raw ECDSA signature pair.
type Signature struct {
	R, S *big.Int
}

// GenerateKey draws a fresh key pair on curve c. A nil rng selects
// crypto/rand.
func GenerateKey(c *ec.Curve, rng io.Reader) (*PrivateKey, error) {
	d, q, err := c.GenerateKeyPair(rng)
	if err != nil {
		return nil, fmt.Errorf("ecdsa: generate key: %w", err)
	}
	return &PrivateKey{Curve: c, D: d, Q: q}, nil
}

// NewPrivateKey wraps an existing scalar (e.g. an ECQV-reconstructed
// private key) as a signing key, validating its range and deriving the
// public point.
func NewPrivateKey(c *ec.Curve, d *big.Int) (*PrivateKey, error) {
	if d == nil || d.Sign() <= 0 || d.Cmp(c.N) >= 0 {
		return nil, errors.New("ecdsa: private scalar out of range")
	}
	dd := new(big.Int).Set(d)
	return &PrivateKey{Curve: c, D: dd, Q: c.ScalarBaseMult(dd)}, nil
}

// Public returns the verification key for k.
func (k *PrivateKey) Public() *PublicKey {
	return &PublicKey{Curve: k.Curve, Q: k.Q.Clone()}
}

// errZeroParam guards the (cryptographically negligible) degenerate
// nonce cases so signing retries instead of emitting r = 0 or s = 0.
var errZeroParam = errors.New("ecdsa: zero parameter, retry with new nonce")

// Sign produces a deterministic (RFC 6979) ECDSA signature over the
// SHA-256 digest of msg. Determinism removes the catastrophic
// nonce-reuse failure mode on embedded devices without entropy
// sources — the exact deployment environment of the paper.
func (k *PrivateKey) Sign(msg []byte) (Signature, error) {
	digest := sha256.Sum256(msg)
	return k.SignDigest(digest[:])
}

// SignDigest signs a precomputed digest.
func (k *PrivateKey) SignDigest(digest []byte) (Signature, error) {
	c := k.Curve
	e := c.HashToInt(digest)

	gen := newRFC6979(c, k.D, digest)
	for i := 0; i < 128; i++ {
		nonce := gen.next()
		sig, err := k.signWithNonce(e, nonce)
		if err == nil {
			return sig, nil
		}
		if !errors.Is(err, errZeroParam) {
			return Signature{}, err
		}
	}
	return Signature{}, errors.New("ecdsa: nonce generation did not converge")
}

func (k *PrivateKey) signWithNonce(e, nonce *big.Int) (Signature, error) {
	c := k.Curve
	if nonce.Sign() == 0 || nonce.Cmp(c.N) >= 0 {
		return Signature{}, errZeroParam
	}
	// (x1, _) = nonce·G ; r = x1 mod n
	p := c.ScalarBaseMult(nonce)
	r := new(big.Int).Mod(p.X, c.N)
	if r.Sign() == 0 {
		return Signature{}, errZeroParam
	}
	// s = nonce⁻¹ (e + r·d) mod n
	kInv := new(big.Int).ModInverse(nonce, c.N)
	s := new(big.Int).Mul(r, k.D)
	s.Add(s, e)
	s.Mul(s, kInv)
	s.Mod(s, c.N)
	if s.Sign() == 0 {
		return Signature{}, errZeroParam
	}
	// Low-S normalisation: if s > n/2, use n − s. Removes signature
	// malleability, matching modern deployments.
	halfN := new(big.Int).Rsh(c.N, 1)
	if s.Cmp(halfN) > 0 {
		s.Sub(c.N, s)
	}
	return Signature{R: r, S: s}, nil
}

// Verify checks sig over the SHA-256 digest of msg.
func (p *PublicKey) Verify(msg []byte, sig Signature) bool {
	digest := sha256.Sum256(msg)
	return p.VerifyDigest(digest[:], sig)
}

// VerifyDigest checks sig over a precomputed digest.
func (p *PublicKey) VerifyDigest(digest []byte, sig Signature) bool {
	var w big.Int
	if !p.accepts(sig) || w.ModInverse(sig.S, p.Curve.N) == nil {
		return false
	}
	return p.verifyInverse(digest, sig, &w)
}

// VerifyImplicit checks sig over digest under the implicit-certificate
// key Q_U = e·pU + qCA (the paper's equation (1)) without
// reconstructing Q_U, for a certificate whose key verifies exactly
// once. Since u2·Q_U = (u2·e)·pU + u2·qCA, R' = u1·G + u2·Q_U is one
// two-point ec.Curve.CombinedMultN chain. The verdict is
// VerifyDigest's under the extracted key, an identity Q_U (which
// extraction refuses) being a reject: for u2 in [1, n−1] on these
// prime-order curves, the chain's u2·Q_U is infinity exactly when Q_U
// is. pU and qCA must be finite points on c; e is reduced modulo the
// group order.
func VerifyImplicit(c *ec.Curve, pU ec.Point, e *big.Int, qCA ec.Point, digest []byte, sig Signature) bool {
	var w, u1, u2, u2e big.Int
	if !inRange(c, sig) || w.ModInverse(sig.S, c.N) == nil ||
		pU.IsInfinity() || !c.IsOnCurve(pU) || qCA.IsInfinity() || !c.IsOnCurve(qCA) {
		return false
	}
	verifyScalars(c, digest, sig, &w, &u1, &u2)
	u2e.Mul(&u2, e).Mod(&u2e, c.N)
	rp, identity := c.CombinedMultN(&u1, []ec.Point{pU, qCA}, []*big.Int{&u2e, &u2})
	return !identity && matchesR(c, rp, sig.R)
}

// accepts is the validation VerifyDigest and VerifyBatch share: the key
// has a curve and a finite point on it, and r and s are in range.
func (p *PublicKey) accepts(sig Signature) bool {
	return p != nil && p.Curve != nil && inRange(p.Curve, sig) &&
		!p.Q.IsInfinity() && p.Curve.IsOnCurve(p.Q)
}

// inRange is the first check of every verification: r and s are set
// and lie in [1, n−1].
func inRange(c *ec.Curve, sig Signature) bool {
	return sig.R != nil && sig.S != nil &&
		sig.R.Sign() > 0 && sig.R.Cmp(c.N) < 0 &&
		sig.S.Sign() > 0 && sig.S.Cmp(c.N) < 0
}

// verifyInverse is the tail of VerifyDigest and of every VerifyBatch
// item, for a key and signature that accepts passed and w = s⁻¹ mod n:
// R' = u1·G + u2·Q, through the precomputed table when attached, then
// matchesR.
func (p *PublicKey) verifyInverse(digest []byte, sig Signature, w *big.Int) bool {
	c := p.Curve
	var u1, u2 big.Int
	verifyScalars(c, digest, sig, w, &u1, &u2)
	var rp ec.Point
	if p.table != nil {
		rp = p.table.CombinedMult(&u1, &u2)
	} else {
		rp = c.CombinedMult(p.Q, &u1, &u2)
	}
	return matchesR(c, rp, sig.R)
}

// verifyScalars sets u1 = e·w and u2 = r·w mod n, with w = s⁻¹ and e
// the digest as a scalar. The outputs are the caller's, so that they
// stay on its stack.
func verifyScalars(c *ec.Curve, digest []byte, sig Signature, w, u1, u2 *big.Int) {
	e := c.HashToInt(digest)
	u1.Mul(e, w).Mod(u1, c.N)
	u2.Mul(sig.R, w).Mod(u2, c.N)
}

// matchesR is the final check of every verification: R' is finite
// and x(R') ≡ r (mod n).
func matchesR(c *ec.Curve, rp ec.Point, r *big.Int) bool {
	if rp.IsInfinity() {
		return false
	}
	v := new(big.Int).Mod(rp.X, c.N)
	return v.Cmp(r) == 0
}

// Raw signature encoding: fixed-width big-endian r ‖ s, 2·ByteLen
// bytes (64 B on P-256). This is the "Sign(64)" / "Resp(64)" payload
// size accounted by Table II of the paper.

// RawSize returns the encoded signature size for curve c.
func RawSize(c *ec.Curve) int { return 2 * c.ByteLen() }

// EncodeRaw serializes sig as fixed-width r ‖ s.
func (s Signature) EncodeRaw(c *ec.Curve) []byte {
	out := make([]byte, 2*c.ByteLen())
	s.R.FillBytes(out[:c.ByteLen()])
	s.S.FillBytes(out[c.ByteLen():])
	return out
}

// ErrInvalidSignature is returned, wrapped, when DecodeRaw rejects a
// byte string.
var ErrInvalidSignature = errors.New("ecdsa: invalid raw signature")

// DecodeRaw parses a fixed-width r ‖ s signature, rejecting a wrong
// length and a component outside [1, n−1].
func DecodeRaw(c *ec.Curve, data []byte) (Signature, error) {
	if len(data) != 2*c.ByteLen() {
		return Signature{}, fmt.Errorf("%w: length %d, want %d",
			ErrInvalidSignature, len(data), 2*c.ByteLen())
	}
	r := new(big.Int).SetBytes(data[:c.ByteLen()])
	s := new(big.Int).SetBytes(data[c.ByteLen():])
	if r.Sign() <= 0 || r.Cmp(c.N) >= 0 || s.Sign() <= 0 || s.Cmp(c.N) >= 0 {
		return Signature{}, fmt.Errorf("%w: component out of range", ErrInvalidSignature)
	}
	return Signature{R: r, S: s}, nil
}

// rfc6979 produces the deterministic nonce stream of RFC 6979 §3.2
// with HMAC-SHA-256.
type rfc6979 struct {
	c     *ec.Curve
	v, k  []byte
	drawn bool // a candidate was returned, so K and V step before the next
}

func newRFC6979(c *ec.Curve, priv *big.Int, digest []byte) *rfc6979 {
	hlen := sha256.Size
	v := make([]byte, hlen)
	k := make([]byte, hlen)
	for i := range v {
		v[i] = 0x01
	}

	x := c.ScalarToBytes(priv)
	h1 := c.ScalarToBytes(c.HashToInt(digest)) // bits2octets(H(m))

	k = kdf.HMAC(k, v, []byte{0x00}, x, h1)
	v = kdf.HMAC(k, v)
	k = kdf.HMAC(k, v, []byte{0x01}, x, h1)
	v = kdf.HMAC(k, v)
	return &rfc6979{c: c, v: v, k: k}
}

// next returns the next candidate nonce in [0, 2^qlen); the caller
// rejects values outside [1, n−1]. The K = HMAC_K(V ‖ 0x00),
// V = HMAC_K(V) step of RFC 6979 §3.2 h.3 runs only when a further
// candidate is drawn, so an accepted first candidate — the usual
// signature — never pays for it.
func (g *rfc6979) next() *big.Int {
	if g.drawn {
		g.k = kdf.HMAC(g.k, g.v, []byte{0x00})
		g.v = kdf.HMAC(g.k, g.v)
	}
	g.drawn = true
	t := make([]byte, 0, g.c.ByteLen())
	for len(t) < g.c.ByteLen() {
		g.v = kdf.HMAC(g.k, g.v)
		t = append(t, g.v...)
	}
	t = t[:g.c.ByteLen()]
	k := new(big.Int).SetBytes(t)
	if excess := len(t)*8 - g.c.N.BitLen(); excess > 0 {
		k.Rsh(k, uint(excess))
	}
	return k
}
