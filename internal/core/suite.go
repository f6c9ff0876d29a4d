package core

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/aead"
	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
	"repro/internal/kdf"
)

// suite executes real cryptographic operations for one party while
// recording primitive events into the run trace. Every protocol
// implementation goes through the suite, so the trace is a faithful
// operation-level account of what the device computed — the input the
// hardware timing model replays.
type suite struct {
	curve *ec.Curve
	m     *meter
	rng   io.Reader
	// cache memoizes peer key extraction and verification tables
	// across this party's handshakes. The trace is unaffected: the
	// meter records the primitives the modelled device would execute,
	// cache hit or not.
	cache *KeyCache
}

func newSuite(curve *ec.Curve, m *meter, rng io.Reader, cache *KeyCache) *suite {
	if rng == nil {
		rng = rand.Reader
	}
	return &suite{curve: curve, m: m, rng: rng, cache: cache}
}

// enter switches the suite's trace phase.
func (s *suite) enter(p Phase) { s.m.enter(p) }

// ephemeral draws X ∈R [1, n−1] and computes XG = X·G — the request
// operation of equation (2).
func (s *suite) ephemeral() (*big.Int, ec.Point, error) {
	s.m.record(PrimRandScalar, 1)
	x, err := s.curve.RandomScalar(s.rng)
	if err != nil {
		return nil, ec.Point{}, err
	}
	s.m.record(PrimECBaseMult, 1)
	return x, s.curve.ScalarBaseMult(x), nil
}

// nonce draws n random bytes.
func (s *suite) nonce(n int) ([]byte, error) {
	s.m.record(PrimRandBytes, n)
	out := make([]byte, n)
	if _, err := io.ReadFull(s.rng, out); err != nil {
		return nil, fmt.Errorf("core: nonce: %w", err)
	}
	return out, nil
}

// extractPublicKey performs the paper's equation (1),
// Q_X = Hash(Cert_X)·Decode(Cert_X) + Q_CA, or recalls Q_X from the
// party's KeyCache. The returned key always holds Q_X.
func (s *suite) extractPublicKey(cert *ecqv.Certificate, caPub ec.Point) (peerKey, error) {
	s.meterExtract()
	return s.cache.lookup(cert, caPub, false)
}

// meterExtract records equation (1) as the modelled device computes
// it, whatever the host does.
func (s *suite) meterExtract() {
	s.m.record(PrimHashBytes, ecqv.EncodedSize(s.curve))
	s.m.record(PrimECPointDecode, 1) // Decode(Cert): decompress P_U
	s.m.record(PrimECPointMult, 1)
	s.m.record(PrimECPointAdd, 1)
}

// resolvePeer is extractPublicKey for an STS peer, where Q_U serves
// one verification and nothing else. It meters equation (1) the same
// way, but leaves Q_U implicit in a certificate the party's KeyCache
// has not seen before, for verify to check straight from it. A
// repeated certificate is extracted and cached.
func (s *suite) resolvePeer(cert *ecqv.Certificate, caPub ec.Point) (peerKey, error) {
	s.meterExtract()
	return s.cache.lookup(cert, caPub, true)
}

// dh computes a Diffie–Hellman shared point k·Q and returns its
// x-coordinate as the premaster secret (equation (3)).
func (s *suite) dh(k *big.Int, q ec.Point) ([]byte, error) {
	s.m.record(PrimECPointMult, 1)
	p := s.curve.ScalarMult(q, k)
	if p.IsInfinity() {
		return nil, errors.New("core: degenerate DH shared point")
	}
	out := make([]byte, s.curve.ByteLen())
	p.X.FillBytes(out)
	return out, nil
}

// cachedCombinedDH computes the SCIANC-style single-multiplication
// premaster: (k·e)·P + [cached k·Q_CA], where the k·Q_CA term is
// precomputed once per certificate epoch and therefore not charged to
// the session. This is why SCIANC's measured per-session cost in
// Table I is roughly one point multiplication per device.
func (s *suite) cachedCombinedDH(k *big.Int, cert *ecqv.Certificate, cachedKQCA ec.Point) ([]byte, error) {
	s.m.record(PrimHashBytes, ecqv.EncodedSize(s.curve))
	s.m.record(PrimECPointDecode, 1)
	e := cert.HashToScalar()
	ke := new(big.Int).Mul(k, e)
	ke.Mod(ke, s.curve.N)
	s.m.record(PrimECPointMult, 1)
	s.m.record(PrimECPointAdd, 1)
	p := s.curve.Add(s.curve.ScalarMult(cert.PubRecon, ke), cachedKQCA)
	if p.IsInfinity() {
		return nil, errors.New("core: degenerate combined DH point")
	}
	out := make([]byte, s.curve.ByteLen())
	p.X.FillBytes(out)
	return out, nil
}

// deriveSessionKeys runs KS = KDF(KPM, salt) (equation (4)), returning
// the encryption and MAC halves.
func (s *suite) deriveSessionKeys(premaster, salt []byte) (encKey, macKey []byte, err error) {
	s.m.record(PrimKDF, 1)
	return kdf.SessionKeys(premaster, salt)
}

// deriveRespKeys is deriveSessionKeys for a protocol that encrypts
// with ctrEncrypt. It also keys the two halves once, into the
// aead.Keys that every ctrEncrypt of the session shares.
func (s *suite) deriveRespKeys(premaster, salt []byte) (encKey, macKey []byte, keys *aead.Keys, err error) {
	if encKey, macKey, err = s.deriveSessionKeys(premaster, salt); err == nil {
		keys, err = aead.New(encKey, macKey)
	}
	return encKey, macKey, keys, err
}

// errSignScalar rejects a party private scalar outside [1, n−1].
var errSignScalar = errors.New("core: private scalar out of range")

// sign produces the ECDSA authentication signature of Algorithm 1 line
// 2/4: dsign = sign(Prk, msg). It signs straight from the range-checked
// scalar: signing never reads the public point, so deriving it the way
// ecdsa.NewPrivateKey does (Q = d·G) would waste a base multiplication
// on every signature. The base multiplication metered below is the
// nonce's R = k·G.
func (s *suite) sign(priv *big.Int, msg []byte) (ecdsa.Signature, error) {
	if priv == nil || priv.Sign() <= 0 || priv.Cmp(s.curve.N) >= 0 {
		return ecdsa.Signature{}, errSignScalar
	}
	key := ecdsa.PrivateKey{Curve: s.curve, D: priv}
	s.m.record(PrimHashBytes, len(msg))
	s.m.record(PrimMACBytes, 4*sha256.Size) // RFC 6979 nonce derivation
	s.m.record(PrimECBaseMult, 1)
	s.m.record(PrimModInverse, 1)
	return key.Sign(msg)
}

// verify checks an ECDSA signature under a peer's public key
// (Algorithm 2 line 3). A key left implicit in a first-seen
// certificate is checked straight from it by ecdsa.VerifyImplicit: one
// multi-scalar chain, with no extraction, no table, and neither the
// SharedTableCache nor the wave batcher. An extracted key gets the comb
// its KeyCache entry holds (attached by the entry's first
// verification) and rides the party's wave batcher: concurrent
// EstablishAll verifications share one scalar inversion through
// ecdsa.VerifyBatch, whose items each run VerifyDigest's own tail, so
// a batched verdict is a lone Verify's. The meter is the same on every
// path: it records the primitives the modelled device executes, which
// extracts Q_U and never batches across peers.
func (s *suite) verify(key peerKey, msg []byte, sig ecdsa.Signature) bool {
	s.m.record(PrimHashBytes, len(msg))
	s.m.record(PrimModInverse, 1)
	s.m.record(PrimECCombinedMult, 1)
	digest := sha256.Sum256(msg)
	if key.peerEntry == nil {
		return ecdsa.VerifyImplicit(s.curve, key.cert.PubRecon, key.cert.HashToScalar(), key.caPub, digest[:], sig)
	}
	return s.cache.wave.verify(s.cache.verifier(s.curve, key), digest[:], sig)
}

// mac computes HMAC-SHA-256 over the concatenation of parts.
func (s *suite) mac(key []byte, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	s.m.record(PrimMACBytes, n)
	return kdf.HMAC(key, parts...)
}

// macVerify recomputes and compares a tag.
func (s *suite) macVerify(key, tag []byte, parts ...[]byte) bool {
	want := s.mac(key, parts...)
	return hmac.Equal(want, tag)
}

// hash computes SHA-256.
func (s *suite) hash(parts ...[]byte) []byte {
	h := sha256.New()
	n := 0
	for _, p := range parts {
		h.Write(p)
		n += len(p)
	}
	s.m.record(PrimHashBytes, n)
	return h.Sum(nil)
}

// ctrEncrypt is the size-preserving encryption of Resp =
// encrypt(KS, dsign) (Algorithm 1 line 6) and of PORAMB's finish echo,
// under the session's keys (see deriveRespKeys). AES-128-CTR keeps
// |Resp| = |dsign| = 64 bytes — exactly the "Resp(64)" that Table II
// charges; integrity of the payload is provided by the signature
// inside, not by a tag. The IV, HMAC(mac, "resp-iv|"+label)[:16], is
// bound to the session (via the MAC key, which is fresh per session
// for DKD protocols) and to the label, so the two Resp messages of a
// session never share keystream. CTR is an involution: the same call
// opens a Resp (Algorithm 2 line 1).
func (s *suite) ctrEncrypt(keys *aead.Keys, label string, data []byte) []byte {
	s.m.record(PrimAESBytes, len(data))
	iv := keys.MAC([]byte("resp-iv|" + label))
	out := make([]byte, len(data))
	keys.XORKeyStream(out, data, iv[:aead.NonceSize])
	return out
}
