package core

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/aead"
	"repro/internal/ecqv"
)

// PORAMB is the two-phase authentication protocol of Porambage et
// al. [3] for wireless sensor networks: hello exchange, certificate +
// nonce exchange authenticated with *pre-embedded pairwise MAC keys*,
// static ECDH key derivation, and finished-message confirmation.
//
// Its Table III weaknesses, reproduced by the security engine: static
// KD (no forward secrecy), and the requirement "that each node
// possesses from each other the authentication key" — pairwise
// pre-shared keys that make fleet-wide updates troublesome and whose
// capture breaks authentication both ways.
type PORAMB struct{}

// NewPORAMB returns the PORAMB baseline protocol.
func NewPORAMB() *PORAMB { return &PORAMB{} }

// Name implements Protocol.
func (p *PORAMB) Name() string { return "PORAMB" }

// Dynamic implements Protocol: static KD.
func (p *PORAMB) Dynamic() bool { return false }

// porambFinishSize is the Table II "Finish(197)" size: transcript hash
// (32) ‖ key-confirmation MAC (32) ‖ encrypted certificate+nonce echo
// (101 + 32 = 133).
const porambFinishSize = 32 + macSize + 101 + nonceSize

// Spec implements Protocol with the Table II layout (6 steps, 820 B).
func (p *PORAMB) Spec() []StepSpec {
	return []StepSpec{
		{Label: "A1", Fields: []FieldSpec{{"Hello", helloSize}, {"ID", ecqv.IDSize}}},
		{Label: "B1", Fields: []FieldSpec{{"Hello", helloSize}, {"ID", ecqv.IDSize}}},
		{Label: "A2", Fields: []FieldSpec{{"Cert", 101}, {"Nonce", nonceSize}, {"MAC", macSize}}},
		{Label: "B2", Fields: []FieldSpec{{"Cert", 101}, {"Nonce", nonceSize}, {"MAC", macSize}}},
		{Label: "A3", Fields: []FieldSpec{{"Finish", porambFinishSize}}},
		{Label: "B3", Fields: []FieldSpec{{"Finish", porambFinishSize}}},
	}
}

// Run implements Protocol. Message flow (Table II):
//
//	A → B : Hello_A, ID_A
//	B → A : Hello_B, ID_B
//	A → B : Cert_A, Nonce_A, MAC_A        (MAC under the pairwise key)
//	B → A : Cert_B, Nonce_B, MAC_B
//	A → B : Finish_A
//	B → A : Finish_B
func (p *PORAMB) Run(a, b *Party) (*Result, error) {
	if err := checkParties(a, b, true, true); err != nil {
		return nil, err
	}
	curve := a.Curve
	trace := &Trace{}
	sa := newSuite(curve, trace.meterFor(RoleA), a.Rand, a.KeyCache())
	sb := newSuite(curve, trace.meterFor(RoleB), b.Rand, b.KeyCache())
	res := &Result{Protocol: p.Name(), Trace: trace}

	// --- Phase one: hello exchange (Op1).
	sa.enter(PhaseOp1)
	helloA, err := sa.nonce(helloSize)
	if err != nil {
		return nil, err
	}
	a1 := WireMessage{From: RoleA, Label: "A1", Field: []Field{
		{"Hello", helloA}, {"ID", a.ID[:]},
	}}
	res.Transcript = append(res.Transcript, a1)

	sb.enter(PhaseOp1)
	helloB, err := sb.nonce(helloSize)
	if err != nil {
		return nil, err
	}
	b1 := WireMessage{From: RoleB, Label: "B1", Field: []Field{
		{"Hello", helloB}, {"ID", b.ID[:]},
	}}
	res.Transcript = append(res.Transcript, b1)

	// --- Phase two: authenticated certificate exchange. The MAC is
	// keyed with the pre-embedded pairwise key and binds the peer's
	// hello (freshness).
	sa.enter(PhaseOp1)
	nonceA, err := sa.nonce(nonceSize)
	if err != nil {
		return nil, err
	}
	sa.enter(PhaseOp3)
	certABytes := a.Cert.Encode()
	macA := sa.mac(a.PairwiseKey, []byte("poramb|A"), certABytes, nonceA, helloB)
	a2 := WireMessage{From: RoleA, Label: "A2", Field: []Field{
		{"Cert", certABytes}, {"Nonce", nonceA}, {"MAC", macA},
	}}
	res.Transcript = append(res.Transcript, a2)

	// B verifies A2 (Op4), then answers.
	sb.enter(PhaseOp4)
	if !sb.macVerify(b.PairwiseKey, a2.Get("MAC"), []byte("poramb|A"), a2.Get("Cert"), a2.Get("Nonce"), helloB) {
		return nil, errors.New("poramb: B: initiator MAC invalid")
	}
	certA, err := ecqv.Decode(a2.Get("Cert"))
	if err != nil {
		return nil, fmt.Errorf("poramb: B: peer certificate: %w", err)
	}
	if certA.SubjectID != a.ID {
		return nil, errors.New("poramb: B: certificate subject mismatch")
	}

	sb.enter(PhaseOp1)
	nonceB, err := sb.nonce(nonceSize)
	if err != nil {
		return nil, err
	}
	sb.enter(PhaseOp3)
	certBBytes := b.Cert.Encode()
	macB := sb.mac(b.PairwiseKey, []byte("poramb|B"), certBBytes, nonceB, helloA)
	b2 := WireMessage{From: RoleB, Label: "B2", Field: []Field{
		{"Cert", certBBytes}, {"Nonce", nonceB}, {"MAC", macB},
	}}
	res.Transcript = append(res.Transcript, b2)

	// A verifies B2 (Op4).
	sa.enter(PhaseOp4)
	if !sa.macVerify(a.PairwiseKey, b2.Get("MAC"), []byte("poramb|B"), b2.Get("Cert"), b2.Get("Nonce"), helloA) {
		return nil, errors.New("poramb: A: responder MAC invalid")
	}
	certB, err := ecqv.Decode(b2.Get("Cert"))
	if err != nil {
		return nil, fmt.Errorf("poramb: A: peer certificate: %w", err)
	}
	if certB.SubjectID != b.ID {
		return nil, errors.New("poramb: A: certificate subject mismatch")
	}

	// --- Op2: static pairwise key establishment from the implicit
	// certificates (full reconstruction — no caching, hence PORAMB's
	// ~2 point multiplications per device in Table I). The derived
	// pairwise key depends on certificate material only; nonces and
	// hellos provide freshness for the MACs, not key diversity — the
	// Table III "key data reuse" weakness.
	salt := concat([]byte("poramb-static|"), a.ID[:], b.ID[:])

	sa.enter(PhaseOp2)
	keyB, err := sa.extractPublicKey(certB, a.CAPub)
	if err != nil {
		return nil, fmt.Errorf("poramb: A: extract Q_B: %w", err)
	}
	pmA, err := sa.dh(a.Priv, keyB.q)
	if err != nil {
		return nil, err
	}
	encA, macKeyA, keysA, err := sa.deriveRespKeys(pmA, salt)
	if err != nil {
		return nil, err
	}

	sb.enter(PhaseOp2)
	keyA, err := sb.extractPublicKey(certA, b.CAPub)
	if err != nil {
		return nil, fmt.Errorf("poramb: B: extract Q_A: %w", err)
	}
	pmB, err := sb.dh(b.Priv, keyA.q)
	if err != nil {
		return nil, err
	}
	encB, macKeyB, keysB, err := sb.deriveRespKeys(pmB, salt)
	if err != nil {
		return nil, err
	}

	// --- Phase three: finished confirmation (Op3/Op4 each way).
	transcript := sa.hash(a1.Encode(), b1.Encode(), a2.Encode(), b2.Encode())

	sa.enter(PhaseOp3)
	finA, err := buildPorambFinish(sa, keysA, macKeyA, "A", transcript, certABytes, nonceA)
	if err != nil {
		return nil, err
	}
	a3 := WireMessage{From: RoleA, Label: "A3", Field: []Field{{"Finish", finA}}}
	res.Transcript = append(res.Transcript, a3)

	sb.enter(PhaseOp4)
	transcriptB := sb.hash(a1.Encode(), b1.Encode(), a2.Encode(), b2.Encode())
	if err := checkPorambFinish(sb, keysB, macKeyB, "A", transcriptB, certABytes, nonceA, a3.Get("Finish")); err != nil {
		return nil, fmt.Errorf("poramb: B: %w", err)
	}

	sb.enter(PhaseOp3)
	finB, err := buildPorambFinish(sb, keysB, macKeyB, "B", transcriptB, certBBytes, nonceB)
	if err != nil {
		return nil, err
	}
	b3 := WireMessage{From: RoleB, Label: "B3", Field: []Field{{"Finish", finB}}}
	res.Transcript = append(res.Transcript, b3)

	sa.enter(PhaseOp4)
	if err := checkPorambFinish(sa, keysA, macKeyA, "B", transcript, certBBytes, nonceB, b3.Get("Finish")); err != nil {
		return nil, fmt.Errorf("poramb: A: %w", err)
	}

	res.KeyA = append(append([]byte(nil), encA...), macKeyA...)
	res.KeyB = append(append([]byte(nil), encB...), macKeyB...)
	return res, nil
}

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// buildPorambFinish assembles the 197-byte finished message:
// transcript hash ‖ key-confirmation MAC ‖ CTR-encrypted cert+nonce
// echo. keys is the session key block keyed once, and macKey its MAC
// half.
func buildPorambFinish(s *suite, keys *aead.Keys, macKey []byte, role string, transcript, certBytes, nonce []byte) ([]byte, error) {
	conf := s.mac(macKey, []byte("poramb-finish|"+role), transcript)
	echo := s.ctrEncrypt(keys, "finish|"+role, concat(certBytes, nonce))
	out := concat(transcript, conf, echo)
	if len(out) != porambFinishSize {
		return nil, fmt.Errorf("poramb: finish size %d, want %d", len(out), porambFinishSize)
	}
	return out, nil
}

// checkPorambFinish verifies a peer's finished message.
func checkPorambFinish(s *suite, keys *aead.Keys, macKey []byte, peerRole string, transcript, wantCert, wantNonce, fin []byte) error {
	if len(fin) != porambFinishSize {
		return fmt.Errorf("finish length %d, want %d", len(fin), porambFinishSize)
	}
	if !bytes.Equal(fin[:32], transcript) {
		return errors.New("finish transcript hash mismatch")
	}
	if !s.macVerify(macKey, fin[32:64], []byte("poramb-finish|"+peerRole), transcript) {
		return errors.New("finish confirmation MAC invalid")
	}
	if !bytes.Equal(s.ctrEncrypt(keys, "finish|"+peerRole, fin[64:]), concat(wantCert, wantNonce)) {
		return errors.New("finish echo mismatch (wrong session key)")
	}
	return nil
}
