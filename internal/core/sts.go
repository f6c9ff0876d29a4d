package core

import (
	"errors"
	"fmt"

	"repro/internal/ec"
	"repro/internal/ecqv"
)

// STSOptimization selects the pipelining variant of §IV-C.
type STSOptimization int

const (
	// OptNone is the conventional sequential STS execution
	// (equation (5)).
	OptNone STSOptimization = iota
	// OptI ships the certificate in the initial request so the two
	// parties' Op2 stages (public key + premaster) overlap
	// (equation (7)).
	OptI
	// OptII additionally overlaps the Op3 authentication-response
	// derivation (equation (8)). Failed authentications are then
	// detected only after the overlapped work has been spent — the
	// flexibility trade-off discussed in the paper.
	OptII
)

// String returns the variant's short name: "none", "opt. I" or
// "opt. II".
func (o STSOptimization) String() string {
	switch o {
	case OptI:
		return "opt. I"
	case OptII:
		return "opt. II"
	default:
		return "none"
	}
}

// STS is the paper's dynamic key-derivation protocol: Station-to-
// Station ephemeral ECDH, authenticated by ECDSA signatures that are
// verified against ECQV-reconstructed public keys and transported
// encrypted under the freshly derived session key (Fig. 2,
// Algorithms 1 and 2).
type STS struct {
	opt STSOptimization
}

// NewSTS returns the STS protocol with the given optimization level.
// All levels exchange identical data ("the sent data is identical to
// the original protocol, but the message and content order vary
// slightly"); the optimization changes which message carries the
// initiator certificate and how the hardware model schedules phases.
func NewSTS(opt STSOptimization) *STS { return &STS{opt: opt} }

// Name implements Protocol.
func (p *STS) Name() string {
	switch p.opt {
	case OptI:
		return "STS (opt. I)"
	case OptII:
		return "STS (opt. II)"
	default:
		return "STS"
	}
}

// Optimization returns the configured pipelining variant.
func (p *STS) Optimization() STSOptimization { return p.opt }

// Dynamic implements Protocol: STS is the only true DKD in the
// comparison.
func (p *STS) Dynamic() bool { return true }

// Spec implements Protocol with the Table II wire layout: the wire
// codec's STS layout on the paper's P-256.
func (p *STS) Spec() []StepSpec {
	spec := make([]StepSpec, 0, 4)
	for _, label := range []string{"A1", "B1", "A2", "B2"} {
		spec = append(spec, StepSpec{Label: label, Fields: stsLayout(ec.P256(), p.opt, label)})
	}
	return spec
}

// Run implements Protocol. It drives an Initiator for a and a
// Responder for b through the message flow of Fig. 2 in memory:
//
//	A → B : ID_A, XG_A                    (plus Cert_A when optimized)
//	B → A : ID_B, Cert_B, XG_B, Resp_B
//	A → B : Cert_A, Resp_A                (Resp_A only when optimized)
//	B → A : ACK
//
// with Resp_X = encrypt(KS, sign(Prk_X, XG_X ‖ XG_Y)) per Algorithm 1
// and verification per Algorithm 2. Every step runs inside the engine
// a deployment embeds; Run drives them with Exchange, whose carry
// decodes each wire message into the transcript. Both engines record
// into one Trace, so A's and B's events interleave in execution order.
// An engine error is returned wrapped with the failing role
// ("sts: A: ...").
func (p *STS) Run(a, b *Party) (*Result, error) {
	if err := checkParties(a, b, true, false); err != nil {
		return nil, err
	}
	trace := &Trace{}
	init, resp := newInitiator(a, p.opt, trace), newResponder(b, p.opt, trace)
	res := &Result{Protocol: p.Name(), Trace: trace}
	err := Exchange(init, resp, func(wire []byte, _ bool) ([]byte, error) {
		msg, err := DecodeSTSMessage(a.Curve, p.opt, wire)
		if err != nil {
			return nil, err
		}
		res.Transcript = append(res.Transcript, msg)
		return wire, nil
	})
	if err != nil {
		return nil, err
	}
	if res.KeyA, err = init.SessionKey(); err != nil {
		return nil, fmt.Errorf("sts: A: %w", err)
	}
	if res.KeyB, err = resp.SessionKey(); err != nil {
		return nil, fmt.Errorf("sts: B: %w", err)
	}
	return res, nil
}

// checkCertificate applies the relying-party certificate policy: the
// claimed wire identity must match the certificate subject and the
// certificate must permit signing.
func checkCertificate(cert *ecqv.Certificate, wantSubject ecqv.ID) error {
	if cert.SubjectID != wantSubject {
		return fmt.Errorf("certificate subject %s does not match peer identity %s",
			cert.SubjectID, wantSubject)
	}
	if !cert.PermitsUsage(ecqv.UsageSignature) {
		return errors.New("certificate does not permit signatures")
	}
	return nil
}
