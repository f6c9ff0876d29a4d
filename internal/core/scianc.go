package core

import (
	"errors"
	"fmt"

	"repro/internal/ec"
	"repro/internal/ecqv"
)

// SCIANC is the protocol of Sciancalepore et al. [4]: implicit
// certificates with a nonce-diversified static key derivation and
// symmetric (MAC) mutual authentication — no per-session EC signatures.
//
// Each party derives the peer's implicit public key and computes a
// static ECDH premaster from its long-term private key; the session
// key mixes in both exchanged nonces, and authentication is an HMAC
// keyed with the derived session key itself. The paper's critique
// (§III, Table III): the nonces are public, so the KD is still static
// (no forward secrecy), and tying authentication to the session key
// means a session-key compromise also compromises future
// authentication.
//
// The d·Q_CA term of the combined reconstruction-and-agreement
// computation depends only on certificate-epoch material and is cached
// across sessions, leaving roughly one EC point multiplication per
// device per session — which is why SCIANC posts the fastest Table I
// times among the certificate-based protocols.
type SCIANC struct {
	// No state. Run computes both parties' d·Q_CA on every run, with
	// two ScalarMult calls left out of the meter: the modelled device
	// precomputes d·Q_CA once per certificate epoch, so no session
	// pays for it.
}

// NewSCIANC returns the SCIANC baseline protocol.
func NewSCIANC() *SCIANC { return &SCIANC{} }

// Name implements Protocol.
func (p *SCIANC) Name() string { return "SCIANC" }

// Dynamic implements Protocol: static KD.
func (p *SCIANC) Dynamic() bool { return false }

// Spec implements Protocol with the Table II layout.
func (p *SCIANC) Spec() []StepSpec {
	return []StepSpec{
		{Label: "A1", Fields: []FieldSpec{{"ID", ecqv.IDSize}, {"Nonce", nonceSize}, {"Cert", 101}}},
		{Label: "B1", Fields: []FieldSpec{{"ID", ecqv.IDSize}, {"Nonce", nonceSize}, {"Cert", 101}}},
		{Label: "A2", Fields: []FieldSpec{{"AuthMAC", macSize}}},
		{Label: "B2", Fields: []FieldSpec{{"AuthMAC", macSize}}},
	}
}

// Run implements Protocol. Message flow (Table II):
//
//	A → B : ID_A, Nonce_A, Cert_A
//	B → A : ID_B, Nonce_B, Cert_B
//	A → B : AuthMAC_A
//	B → A : AuthMAC_B
func (p *SCIANC) Run(a, b *Party) (*Result, error) {
	if err := checkParties(a, b, true, false); err != nil {
		return nil, err
	}
	curve := a.Curve
	trace := &Trace{}
	sa := newSuite(curve, trace.meterFor(RoleA), a.Rand, a.KeyCache())
	sb := newSuite(curve, trace.meterFor(RoleB), b.Rand, b.KeyCache())
	res := &Result{Protocol: p.Name(), Trace: trace}

	// Certificate-epoch caches: d·Q_CA is independent of the peer and
	// session; devices precompute it when certificates are installed.
	// It is deliberately NOT metered into the session trace.
	cacheA := curve.ScalarMult(a.CAPub, a.Priv)
	cacheB := curve.ScalarMult(b.CAPub, b.Priv)

	// --- A, Op1.
	sa.enter(PhaseOp1)
	nonceA, err := sa.nonce(nonceSize)
	if err != nil {
		return nil, err
	}
	a1 := WireMessage{From: RoleA, Label: "A1", Field: []Field{
		{"ID", a.ID[:]},
		{"Nonce", nonceA},
		{"Cert", a.Cert.Encode()},
	}}
	res.Transcript = append(res.Transcript, a1)

	// --- B, Op1 and response.
	sb.enter(PhaseOp1)
	nonceB, err := sb.nonce(nonceSize)
	if err != nil {
		return nil, err
	}
	b1 := WireMessage{From: RoleB, Label: "B1", Field: []Field{
		{"ID", b.ID[:]},
		{"Nonce", nonceB},
		{"Cert", b.Cert.Encode()},
	}}
	res.Transcript = append(res.Transcript, b1)

	salt := append(append([]byte(nil), nonceA...), nonceB...)

	// --- Both parties, Op2: combined public-key reconstruction and
	// static key agreement with the cached CA term:
	// Sk = (d·H(Cert_peer))·P_peer + [d·Q_CA].
	//
	// The encryption key mixes the session nonces (the scheme's key
	// "diversification"), but the authentication key derives from the
	// static premaster alone — SCIANC "ties its session key with the
	// KD authentication, meaning that if the session key gets
	// exploited so will the future authentication" (§V-D). The
	// security engine demonstrates exactly that forgery.
	deriveKeys := func(s *suite, self *Party, peerCertBytes []byte, peerID ecqv.ID, cached ec.Point) ([]byte, []byte, error) {
		cert, err := ecqv.Decode(peerCertBytes)
		if err != nil {
			return nil, nil, fmt.Errorf("scianc: peer certificate: %w", err)
		}
		if err := checkSCIANCCertificate(cert, peerID); err != nil {
			return nil, nil, err
		}
		s.enter(PhaseOp2)
		pm, err := s.cachedCombinedDH(self.Priv, cert, cached)
		if err != nil {
			return nil, nil, err
		}
		encKey, _, err := s.deriveSessionKeys(pm, concat([]byte("scianc-enc|"), salt))
		if err != nil {
			return nil, nil, err
		}
		_, authKey, err := s.deriveSessionKeys(pm, []byte("scianc-static-auth"))
		if err != nil {
			return nil, nil, err
		}
		return encKey, authKey, nil
	}

	encA, macKeyA, err := deriveKeys(sa, a, b1.Get("Cert"), b.ID, cacheA)
	if err != nil {
		return nil, fmt.Errorf("scianc: A: %w", err)
	}
	encB, macKeyB, err := deriveKeys(sb, b, a1.Get("Cert"), a.ID, cacheB)
	if err != nil {
		return nil, fmt.Errorf("scianc: B: %w", err)
	}

	// --- Op3/Op4: mutual MAC authentication keyed with the session
	// key itself (the coupling Table III marks as a partial weakness).
	sa.enter(PhaseOp3)
	authA := sa.mac(macKeyA, []byte("scianc-auth|A"), a.ID[:], b.ID[:], nonceA, nonceB)
	a2 := WireMessage{From: RoleA, Label: "A2", Field: []Field{{"AuthMAC", authA}}}
	res.Transcript = append(res.Transcript, a2)

	sb.enter(PhaseOp4)
	if !sb.macVerify(macKeyB, a2.Get("AuthMAC"), []byte("scianc-auth|A"), a.ID[:], b.ID[:], nonceA, nonceB) {
		return nil, errors.New("scianc: B: initiator authentication failed")
	}

	sb.enter(PhaseOp3)
	authB := sb.mac(macKeyB, []byte("scianc-auth|B"), b.ID[:], a.ID[:], nonceB, nonceA)
	b2 := WireMessage{From: RoleB, Label: "B2", Field: []Field{{"AuthMAC", authB}}}
	res.Transcript = append(res.Transcript, b2)

	sa.enter(PhaseOp4)
	if !sa.macVerify(macKeyA, b2.Get("AuthMAC"), []byte("scianc-auth|B"), b.ID[:], a.ID[:], nonceB, nonceA) {
		return nil, errors.New("scianc: A: responder authentication failed")
	}

	res.KeyA = append(append([]byte(nil), encA...), macKeyA...)
	res.KeyB = append(append([]byte(nil), encB...), macKeyB...)
	return res, nil
}

// checkSCIANCCertificate applies the (weaker) SCIANC relying-party
// policy: subject match only — the scheme validates "the ID and
// correctness of the certificate calculation, but this does not
// guarantee the authenticity of the device itself" (§III).
func checkSCIANCCertificate(cert *ecqv.Certificate, wantSubject ecqv.ID) error {
	if cert.SubjectID != wantSubject {
		return fmt.Errorf("scianc: certificate subject %s does not match %s",
			cert.SubjectID, wantSubject)
	}
	return nil
}
