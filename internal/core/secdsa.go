package core

import (
	"errors"
	"fmt"

	"repro/internal/ecdsa"
	"repro/internal/ecqv"
)

// SECDSA is the static ECDSA key derivation of Basic et al. [5] — the
// paper's primary comparison baseline. Authentication is mutual ECDSA
// over exchanged nonces (verified against ECQV-reconstructed keys),
// but the session secret is the *static* Diffie–Hellman product of the
// long-term certificate keys (§II-A):
//
//	Sk = Prk_A · Puk_B = Prk_B · Puk_A
//
// The nonces only diversify the KDF salt; because they travel in the
// clear, compromise of either long-term key re-derives every session
// key from a recorded transcript — the forward-secrecy gap the paper's
// STS design closes.
type SECDSA struct {
	// ext enables the extended variant: authenticated finished
	// messages appended to the handshake, after the finished-message
	// handling of Porambage et al. [3].
	ext bool
}

// NewSECDSA returns the S-ECDSA protocol; ext selects the extended
// finished-message variant ("S-ECDSA (ext.)" in Table I).
func NewSECDSA(ext bool) *SECDSA { return &SECDSA{ext: ext} }

// Name implements Protocol.
func (p *SECDSA) Name() string {
	if p.ext {
		return "S-ECDSA (ext.)"
	}
	return "S-ECDSA"
}

// Dynamic implements Protocol: S-ECDSA is a static KD.
func (p *SECDSA) Dynamic() bool { return false }

// finSize is the finished-message size of the extended variant
// (Table II: "Fin(96)"): fresh nonce (32) ‖ transcript MAC (32) ‖
// key-confirmation MAC (32).
const finSize = 96

// Spec implements Protocol with the Table II layout.
func (p *SECDSA) Spec() []StepSpec {
	spec := []StepSpec{
		{Label: "A1", Fields: []FieldSpec{{"ID", ecqv.IDSize}, {"Nonce", nonceSize}}},
		{Label: "B1", Fields: []FieldSpec{{"ID", ecqv.IDSize}, {"Cert", 101}, {"Sign", sigSize}, {"Nonce", nonceSize}}},
		{Label: "A2", Fields: []FieldSpec{{"Cert", 101}, {"Sign", sigSize}}},
	}
	if p.ext {
		spec = append(spec,
			StepSpec{Label: "B2", Fields: []FieldSpec{{"ACK", ackSize}, {"Fin", finSize}}},
			StepSpec{Label: "A3", Fields: []FieldSpec{{"Fin", finSize}}},
		)
	} else {
		spec = append(spec, StepSpec{Label: "B2", Fields: []FieldSpec{{"ACK", ackSize}}})
	}
	return spec
}

// Run implements Protocol. Message flow (Table II):
//
//	A → B : ID_A, Nonce_A
//	B → A : ID_B, Cert_B, Sign_B, Nonce_B
//	A → B : Cert_A, Sign_A
//	B → A : ACK            (+ Fin_B when extended)
//	A → B : Fin_A          (extended only)
func (p *SECDSA) Run(a, b *Party) (*Result, error) {
	if err := checkParties(a, b, true, false); err != nil {
		return nil, err
	}
	curve := a.Curve
	trace := &Trace{}
	sa := newSuite(curve, trace.meterFor(RoleA), a.Rand, a.KeyCache())
	sb := newSuite(curve, trace.meterFor(RoleB), b.Rand, b.KeyCache())
	res := &Result{Protocol: p.Name(), Trace: trace}

	// --- A, Op1: session nonce.
	sa.enter(PhaseOp1)
	nonceA, err := sa.nonce(nonceSize)
	if err != nil {
		return nil, err
	}
	a1 := WireMessage{From: RoleA, Label: "A1", Field: []Field{
		{"ID", a.ID[:]},
		{"Nonce", nonceA},
	}}
	res.Transcript = append(res.Transcript, a1)

	// --- B processes A1: nonce, then sign both nonces.
	sb.enter(PhaseOp1)
	nonceB, err := sb.nonce(nonceSize)
	if err != nil {
		return nil, err
	}
	sb.enter(PhaseOp3)
	authB := append(append([]byte(nil), nonceB...), nonceA...)
	signB, err := sb.sign(b.Priv, authB)
	if err != nil {
		return nil, fmt.Errorf("s-ecdsa: B sign: %w", err)
	}
	b1 := WireMessage{From: RoleB, Label: "B1", Field: []Field{
		{"ID", b.ID[:]},
		{"Cert", b.Cert.Encode()},
		{"Sign", signB.EncodeRaw(curve)},
		{"Nonce", nonceB},
	}}
	res.Transcript = append(res.Transcript, b1)

	// --- A processes B1: Op2 (extract Q_B + static DH + KDF), Op4
	// (verify Sign_B), Op3 (sign).
	certB, err := ecqv.Decode(b1.Get("Cert"))
	if err != nil {
		return nil, fmt.Errorf("s-ecdsa: A: peer certificate: %w", err)
	}
	if err := checkCertificate(certB, b.ID); err != nil {
		return nil, fmt.Errorf("s-ecdsa: A: %w", err)
	}
	sa.enter(PhaseOp2)
	keyB, err := sa.extractPublicKey(certB, a.CAPub)
	if err != nil {
		return nil, fmt.Errorf("s-ecdsa: A: extract Q_B: %w", err)
	}
	// Static premaster: Sk = Prk_A · Q_B. The session key is derived
	// from certificate material only — the nonces authenticate the
	// exchange but do NOT diversify the key. This is precisely the
	// static-KD behaviour the paper critiques: "These keys would,
	// hence, only be changed by the change of the certificates" (§I).
	pmA, err := sa.dh(a.Priv, keyB.q)
	if err != nil {
		return nil, fmt.Errorf("s-ecdsa: A premaster: %w", err)
	}
	salt := sECDSASalt(a.ID, b.ID)
	encA, macA, err := sa.deriveSessionKeys(pmA, salt)
	if err != nil {
		return nil, err
	}

	sa.enter(PhaseOp4)
	sigB, err := ecdsa.DecodeRaw(curve, b1.Get("Sign"))
	if err != nil {
		return nil, fmt.Errorf("s-ecdsa: A: responder signature: %w", err)
	}
	wantAuthB := append(append([]byte(nil), b1.Get("Nonce")...), nonceA...)
	if !sa.verify(keyB, wantAuthB, sigB) {
		return nil, errors.New("s-ecdsa: A: responder authentication failed")
	}

	sa.enter(PhaseOp3)
	authA := append(append([]byte(nil), nonceA...), nonceB...)
	signA, err := sa.sign(a.Priv, authA)
	if err != nil {
		return nil, fmt.Errorf("s-ecdsa: A sign: %w", err)
	}
	a2 := WireMessage{From: RoleA, Label: "A2", Field: []Field{
		{"Cert", a.Cert.Encode()},
		{"Sign", signA.EncodeRaw(curve)},
	}}
	res.Transcript = append(res.Transcript, a2)

	// --- B processes A2: Op2 (extract Q_A + static DH + KDF), Op4.
	certA, err := ecqv.Decode(a2.Get("Cert"))
	if err != nil {
		return nil, fmt.Errorf("s-ecdsa: B: peer certificate: %w", err)
	}
	if err := checkCertificate(certA, a.ID); err != nil {
		return nil, fmt.Errorf("s-ecdsa: B: %w", err)
	}
	sb.enter(PhaseOp2)
	keyA, err := sb.extractPublicKey(certA, b.CAPub)
	if err != nil {
		return nil, fmt.Errorf("s-ecdsa: B: extract Q_A: %w", err)
	}
	pmB, err := sb.dh(b.Priv, keyA.q)
	if err != nil {
		return nil, fmt.Errorf("s-ecdsa: B premaster: %w", err)
	}
	encB, macB, err := sb.deriveSessionKeys(pmB, salt)
	if err != nil {
		return nil, err
	}

	sb.enter(PhaseOp4)
	sigA, err := ecdsa.DecodeRaw(curve, a2.Get("Sign"))
	if err != nil {
		return nil, fmt.Errorf("s-ecdsa: B: initiator signature: %w", err)
	}
	if !sb.verify(keyA, authA, sigA) {
		return nil, errors.New("s-ecdsa: B: initiator authentication failed")
	}

	if p.ext {
		// Extended finished messages: each side proves key possession
		// and binds the transcript, modeled after the finished-message
		// handling of Porambage et al. [3].
		transcriptHash := sb.hash(a1.Encode(), b1.Encode(), a2.Encode())
		finB, err := buildFinished(sb, macB, "B", transcriptHash)
		if err != nil {
			return nil, err
		}
		b2 := WireMessage{From: RoleB, Label: "B2", Field: []Field{
			{"ACK", []byte{0x06}},
			{"Fin", finB},
		}}
		res.Transcript = append(res.Transcript, b2)

		sa.enter(PhaseOp4)
		transcriptHashA := sa.hash(a1.Encode(), b1.Encode(), a2.Encode())
		if err := checkFinished(sa, macA, "B", transcriptHashA, b2.Get("Fin")); err != nil {
			return nil, fmt.Errorf("s-ecdsa: A: %w", err)
		}
		finA, err := buildFinished(sa, macA, "A", transcriptHashA)
		if err != nil {
			return nil, err
		}
		a3 := WireMessage{From: RoleA, Label: "A3", Field: []Field{{"Fin", finA}}}
		res.Transcript = append(res.Transcript, a3)

		sb.enter(PhaseOp4)
		if err := checkFinished(sb, macB, "A", transcriptHash, a3.Get("Fin")); err != nil {
			return nil, fmt.Errorf("s-ecdsa: B: %w", err)
		}
	} else {
		b2 := WireMessage{From: RoleB, Label: "B2", Field: []Field{{"ACK", []byte{0x06}}}}
		res.Transcript = append(res.Transcript, b2)
	}

	res.KeyA = append(append([]byte(nil), encA...), macA...)
	res.KeyB = append(append([]byte(nil), encB...), macB...)
	return res, nil
}

// Encode flattens a wire message for transcript hashing.
func (m WireMessage) Encode() []byte {
	out := []byte(m.Label)
	for _, f := range m.Field {
		out = append(out, f.Bytes...)
	}
	return out
}

// sECDSASalt is the static (session-independent) KDF salt of S-ECDSA:
// a protocol label and the two party identities. Both orderings of a
// pair derive the same key, and repeated sessions under the same
// certificates repeat the key — the paper's Table III "key data reuse"
// weakness.
func sECDSASalt(idA, idB ecqv.ID) []byte {
	out := []byte("s-ecdsa-static|")
	out = append(out, idA[:]...)
	out = append(out, idB[:]...)
	return out
}

// buildFinished creates a 96-byte finished message:
// nonce(32) ‖ MAC(macKey, "fin"‖role‖transcript‖nonce)(32) ‖
// MAC(macKey, "confirm"‖role‖nonce)(32).
func buildFinished(s *suite, macKey []byte, role string, transcriptHash []byte) ([]byte, error) {
	n, err := s.nonce(nonceSize)
	if err != nil {
		return nil, err
	}
	m1 := s.mac(macKey, []byte("fin|"+role), transcriptHash, n)
	m2 := s.mac(macKey, []byte("confirm|"+role), n)
	out := make([]byte, 0, finSize)
	out = append(out, n...)
	out = append(out, m1...)
	out = append(out, m2...)
	return out, nil
}

// checkFinished verifies a peer's finished message.
func checkFinished(s *suite, macKey []byte, peerRole string, transcriptHash, fin []byte) error {
	if len(fin) != finSize {
		return fmt.Errorf("finished message length %d, want %d", len(fin), finSize)
	}
	n := fin[:32]
	if !s.macVerify(macKey, fin[32:64], []byte("fin|"+peerRole), transcriptHash, n) {
		return errors.New("finished transcript MAC invalid")
	}
	if !s.macVerify(macKey, fin[64:96], []byte("confirm|"+peerRole), n) {
		return errors.New("finished confirmation MAC invalid")
	}
	return nil
}
