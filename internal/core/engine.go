package core

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/aead"
	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
)

// Message-driven STS engine: the one implementation of the STS
// protocol. The Initiator and Responder are incremental state machines
// that consume and produce wire bytes — the form a deployment embeds
// behind a real network stack. Exchange is the one driver of their
// message order, and every STS run goes through it: fleet and the live
// CAN-FD integration tests carry the messages over the
// canbus/cantp/transport substrate, while STS.Run — behind the paper
// artifacts, the security analysis and ecqvsts.Establish — and group's
// pairwise handshakes carry them in memory.

// HandshakeError wraps protocol violations detected by the engine.
var (
	// ErrHandshakeState is returned when a message arrives in the
	// wrong state.
	ErrHandshakeState = errors.New("core: unexpected handshake state")
	// ErrHandshakeAuth is returned when peer authentication fails;
	// the handshake must be abandoned.
	ErrHandshakeAuth = errors.New("core: handshake authentication failed")
)

// engineCommon holds the state shared by both roles.
type engineCommon struct {
	party *Party
	opt   STSOptimization
	trace *Trace
	suite *suite

	x      *big.Int // own ephemeral scalar
	xg     ec.Point // own ephemeral point
	peerXG ec.Point
	peerID ecqv.ID
	// encKey and macKey are KS's two halves, kept for SessionKey;
	// keys holds them keyed once, for both Resp messages.
	encKey []byte
	macKey []byte
	keys   *aead.Keys
	done   bool
}

// SessionKey returns the derived key block (enc ‖ mac) once the
// handshake has completed.
func (e *engineCommon) SessionKey() ([]byte, error) {
	if !e.done {
		return nil, errors.New("core: handshake not complete")
	}
	return append(append([]byte(nil), e.encKey...), e.macKey...), nil
}

// Trace returns the primitive-level execution record (own side only).
func (e *engineCommon) Trace() *Trace { return e.trace }

// checkEngineParty rejects a party without certificate credentials.
func checkEngineParty(party *Party) error {
	if party == nil || party.Cert == nil || party.Priv == nil {
		return errors.New("core: engine party not provisioned")
	}
	return nil
}

// newEngineCommon builds one provisioned role's state, recording into
// trace.
func newEngineCommon(party *Party, role PartyRole, opt STSOptimization, trace *Trace) engineCommon {
	return engineCommon{
		party: party,
		opt:   opt,
		trace: trace,
		suite: newSuite(party.Curve, trace.meterFor(role), party.Rand, party.KeyCache()),
	}
}

// deriveKeys computes the session keys from the premaster and the two
// ephemeral points in initiator-first salt order, and keys them once
// for signResp and verifyResp.
func (e *engineCommon) deriveKeys(pm []byte, xgA, xgB ec.Point) (err error) {
	curve := e.party.Curve
	salt := append(encodePointRaw(curve, xgA), encodePointRaw(curve, xgB)...)
	e.encKey, e.macKey, e.keys, err = e.suite.deriveRespKeys(pm, salt)
	return err
}

// signResp builds Resp = encrypt(KS, sign(Prk, first ‖ second)).
func (e *engineCommon) signResp(direction string, first, second ec.Point) ([]byte, error) {
	curve := e.party.Curve
	auth := append(encodePointRaw(curve, first), encodePointRaw(curve, second)...)
	dsign, err := e.suite.sign(e.party.Priv, auth)
	if err != nil {
		return nil, err
	}
	return e.suite.ctrEncrypt(e.keys, direction, dsign.EncodeRaw(curve)), nil
}

// verifyResp checks a peer Resp under the key extractPeer resolved;
// a first-seen certificate whose Q_U is the identity fails here.
func (e *engineCommon) verifyResp(direction string, resp []byte, key peerKey, first, second ec.Point) error {
	curve := e.party.Curve
	e.suite.m.record(PrimAESBytes, len(resp))
	sig, err := ecdsa.DecodeRaw(curve, e.suite.ctrEncrypt(e.keys, direction, resp))
	if err != nil {
		return fmt.Errorf("%w: response garbled", ErrHandshakeAuth)
	}
	auth := append(encodePointRaw(curve, first), encodePointRaw(curve, second)...)
	if !e.suite.verify(key, auth, sig) {
		return ErrHandshakeAuth
	}
	return nil
}

// extractPeer validates a peer certificate and resolves its key:
// extracted, or left implicit in a first-seen certificate (see
// suite.resolvePeer).
func (e *engineCommon) extractPeer(certBytes []byte, claimedID ecqv.ID) (peerKey, error) {
	cert, err := ecqv.Decode(certBytes)
	if err != nil {
		return peerKey{}, fmt.Errorf("%w: %v", ErrHandshakeAuth, err)
	}
	if err := checkCertificate(cert, claimedID); err != nil {
		return peerKey{}, fmt.Errorf("%w: %v", ErrHandshakeAuth, err)
	}
	key, err := e.suite.resolvePeer(cert, e.party.CAPub)
	if err != nil {
		return peerKey{}, fmt.Errorf("%w: %v", ErrHandshakeAuth, err)
	}
	return key, nil
}

// Initiator is the A side of a live STS handshake.
type Initiator struct {
	engineCommon
	state int // 0 = new, 1 = sent A1, 2 = sent A2 (awaiting ACK), 3 = done
}

// NewInitiator builds the A-side state machine.
func NewInitiator(party *Party, opt STSOptimization) (*Initiator, error) {
	if err := checkEngineParty(party); err != nil {
		return nil, err
	}
	return newInitiator(party, opt, &Trace{}), nil
}

// newInitiator builds an Initiator for a provisioned party, recording
// into trace; STS.Run shares one trace between both roles.
func newInitiator(party *Party, opt STSOptimization, trace *Trace) *Initiator {
	return &Initiator{engineCommon: newEngineCommon(party, RoleA, opt, trace)}
}

// Start emits A1.
func (i *Initiator) Start() ([]byte, error) {
	if i.state != 0 {
		return nil, ErrHandshakeState
	}
	i.suite.enter(PhaseOp1)
	x, xg, err := i.suite.ephemeral()
	if err != nil {
		return nil, err
	}
	i.x, i.xg = x, xg

	msg := WireMessage{From: RoleA, Label: "A1"}
	if i.opt == OptNone {
		msg.Field = []Field{
			{"ID", i.party.ID[:]},
			{"XG", encodePointRaw(i.party.Curve, xg)},
		}
	} else {
		msg.Field = []Field{
			{"ID", i.party.ID[:]},
			{"Cert", i.party.Cert.Encode()},
			{"XG", encodePointRaw(i.party.Curve, xg)},
		}
	}
	i.state = 1
	return EncodeSTSMessage(msg)
}

// Handle consumes a peer message and returns the reply (nil when no
// reply is due). done reports handshake completion.
func (i *Initiator) Handle(data []byte) (reply []byte, done bool, err error) {
	curve := i.party.Curve
	msg, err := DecodeSTSMessage(curve, i.opt, data)
	if err != nil {
		return nil, false, err
	}
	switch {
	case i.state == 1 && msg.Label == "B1":
		peerXG, err := decodePointRaw(curve, msg.Get("XG"))
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", ErrHandshakeAuth, err)
		}
		i.peerXG = peerXG
		copy(i.peerID[:], msg.Get("ID"))

		i.suite.enter(PhaseOp2PubKey)
		keyB, err := i.extractPeer(msg.Get("Cert"), i.peerID)
		if err != nil {
			return nil, false, err
		}
		i.suite.enter(PhaseOp2Premaster)
		pm, err := i.suite.dh(i.x, peerXG)
		if err != nil {
			return nil, false, err
		}
		if err := i.deriveKeys(pm, i.xg, peerXG); err != nil {
			return nil, false, err
		}

		i.suite.enter(PhaseOp4)
		if err := i.verifyResp("B->A", msg.Get("Resp"), keyB, peerXG, i.xg); err != nil {
			return nil, false, err
		}

		i.suite.enter(PhaseOp3)
		resp, err := i.signResp("A->B", i.xg, peerXG)
		if err != nil {
			return nil, false, err
		}
		out := WireMessage{From: RoleA, Label: "A2"}
		if i.opt == OptNone {
			out.Field = []Field{{"Cert", i.party.Cert.Encode()}, {"Resp", resp}}
		} else {
			out.Field = []Field{{"Resp", resp}}
		}
		i.state = 2
		enc, err := EncodeSTSMessage(out)
		return enc, false, err

	case i.state == 2 && msg.Label == "B2":
		i.state = 3
		i.done = true
		return nil, true, nil
	}
	return nil, false, fmt.Errorf("%w: %s in state %d", ErrHandshakeState, msg.Label, i.state)
}

// Responder is the B side of a live STS handshake.
type Responder struct {
	engineCommon
	state int // 0 = new, 1 = sent B1 (awaiting A2), 2 = done
	keyA  peerKey
}

// NewResponder builds the B-side state machine.
func NewResponder(party *Party, opt STSOptimization) (*Responder, error) {
	if err := checkEngineParty(party); err != nil {
		return nil, err
	}
	return newResponder(party, opt, &Trace{}), nil
}

// newResponder builds a Responder for a provisioned party, recording
// into trace.
func newResponder(party *Party, opt STSOptimization, trace *Trace) *Responder {
	return &Responder{engineCommon: newEngineCommon(party, RoleB, opt, trace)}
}

// Handle consumes a peer message and returns the reply. done reports
// handshake completion (after emitting the ACK).
func (r *Responder) Handle(data []byte) (reply []byte, done bool, err error) {
	curve := r.party.Curve
	msg, err := DecodeSTSMessage(curve, r.opt, data)
	if err != nil {
		return nil, false, err
	}
	switch {
	case r.state == 0 && msg.Label == "A1":
		peerXG, err := decodePointRaw(curve, msg.Get("XG"))
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", ErrHandshakeAuth, err)
		}
		r.peerXG = peerXG
		copy(r.peerID[:], msg.Get("ID"))

		r.suite.enter(PhaseOp1)
		x, xg, err := r.suite.ephemeral()
		if err != nil {
			return nil, false, err
		}
		r.x, r.xg = x, xg

		r.suite.enter(PhaseOp2Premaster)
		pm, err := r.suite.dh(x, peerXG)
		if err != nil {
			return nil, false, err
		}
		if err := r.deriveKeys(pm, peerXG, xg); err != nil {
			return nil, false, err
		}
		if r.opt != OptNone {
			r.suite.enter(PhaseOp2PubKey)
			if r.keyA, err = r.extractPeer(msg.Get("Cert"), r.peerID); err != nil {
				return nil, false, err
			}
		}

		r.suite.enter(PhaseOp3)
		resp, err := r.signResp("B->A", xg, peerXG)
		if err != nil {
			return nil, false, err
		}
		out := WireMessage{From: RoleB, Label: "B1", Field: []Field{
			{"ID", r.party.ID[:]},
			{"Cert", r.party.Cert.Encode()},
			{"XG", encodePointRaw(curve, xg)},
			{"Resp", resp},
		}}
		r.state = 1
		enc, err := EncodeSTSMessage(out)
		return enc, false, err

	case r.state == 1 && msg.Label == "A2":
		if r.opt == OptNone {
			r.suite.enter(PhaseOp2PubKey)
			if r.keyA, err = r.extractPeer(msg.Get("Cert"), r.peerID); err != nil {
				return nil, false, err
			}
		}
		r.suite.enter(PhaseOp4)
		if err := r.verifyResp("A->B", msg.Get("Resp"), r.keyA, r.peerXG, r.xg); err != nil {
			return nil, false, err
		}
		out := WireMessage{From: RoleB, Label: "B2", Field: []Field{{"ACK", []byte{0x06}}}}
		r.state = 2
		r.done = true
		enc, err := EncodeSTSMessage(out)
		return enc, true, err
	}
	return nil, false, fmt.Errorf("%w: %s in state %d", ErrHandshakeState, msg.Label, r.state)
}

// Exchange runs one STS handshake between init and resp in the message
// order of Fig. 2: A1, B1, A2, B2. carry moves each message to the
// other role (toB is true for A1 and A2) and returns the bytes that
// arrive there; a nil carry hands them over in memory. An engine error
// comes back wrapped with the failing role ("sts: A: ..."), a carry
// error unchanged. On success both engines hold the session key.
func Exchange(init *Initiator, resp *Responder, carry func(msg []byte, toB bool) ([]byte, error)) error {
	if carry == nil {
		carry = func(msg []byte, _ bool) ([]byte, error) { return msg, nil }
	}
	a1, err := init.Start()
	if err != nil {
		return fmt.Errorf("sts: A: %w", err)
	}
	if a1, err = carry(a1, true); err != nil {
		return err
	}
	b1, _, err := resp.Handle(a1)
	if err != nil {
		return fmt.Errorf("sts: B: %w", err)
	}
	if b1, err = carry(b1, false); err != nil {
		return err
	}
	a2, _, err := init.Handle(b1)
	if err != nil {
		return fmt.Errorf("sts: A: %w", err)
	}
	if a2, err = carry(a2, true); err != nil {
		return err
	}
	b2, _, err := resp.Handle(a2)
	if err != nil {
		return fmt.Errorf("sts: B: %w", err)
	}
	if b2, err = carry(b2, false); err != nil {
		return err
	}
	if _, _, err := init.Handle(b2); err != nil {
		return fmt.Errorf("sts: A: %w", err)
	}
	return nil
}
