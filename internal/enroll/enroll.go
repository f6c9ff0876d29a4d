// Package enroll implements the certificate-derivation stage of the
// paper's Figure 1 as a wire protocol: a device sends its ECQV request
// to the central-authority gateway (in the prototype, a Raspberry Pi 4
// reachable over CAN-FD) and receives the certificate plus the
// private-key reconstruction value.
//
// The SEC 4 consistency check (Q = d·G after reconstruction) is the
// integrity anchor: a corrupted or substituted response reconstructs a
// key that fails the check, so enrollment needs no additional
// signature as long as the CA public key was provisioned out of band.
package enroll

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"time"

	"repro/internal/ec"
	"repro/internal/ecqv"
)

// Message op codes on the enrollment channel.
const (
	// OpRequest is a device → gateway certificate request.
	OpRequest byte = 0x41
	// OpResponse is a gateway → device issuance response.
	OpResponse byte = 0x42
	// OpError is a gateway → device rejection.
	OpError byte = 0x4F
)

// wire sizes (P-256): request = ID(16) ‖ R(65 uncompressed);
// response = Cert ‖ r(32).

// Request is the device-side enrollment request.
type Request struct {
	SubjectID ecqv.ID
	R         ec.Point
}

// EncodeRequest serializes a request: op ‖ ID ‖ R (uncompressed).
func EncodeRequest(curve *ec.Curve, req Request) []byte {
	out := []byte{OpRequest}
	out = append(out, req.SubjectID[:]...)
	out = append(out, curve.EncodeUncompressed(req.R)...)
	return out
}

// ErrWire wraps malformed enrollment messages.
var ErrWire = errors.New("enroll: malformed message")

// ErrRejected wraps a gateway's OpError reply: a well-formed refusal.
var ErrRejected = errors.New("enroll: gateway rejected request")

// maxReasonLen caps the bytes of a gateway's rejection reason that
// DecodeResponse quotes into its error.
const maxReasonLen = 128

// DecodeRequest parses and validates a request.
func DecodeRequest(curve *ec.Curve, data []byte) (Request, error) {
	want := 1 + ecqv.IDSize + curve.UncompressedPointSize()
	if len(data) != want || data[0] != OpRequest {
		return Request{}, fmt.Errorf("%w: request length %d", ErrWire, len(data))
	}
	var req Request
	copy(req.SubjectID[:], data[1:1+ecqv.IDSize])
	p, err := curve.DecodePoint(data[1+ecqv.IDSize:])
	if err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrWire, err)
	}
	req.R = p
	return req, nil
}

// EncodeResponse serializes an issuance response:
// op ‖ certLen(2) ‖ cert ‖ r.
func EncodeResponse(curve *ec.Curve, cert *ecqv.Certificate, r *big.Int) []byte {
	certBytes := cert.Encode()
	out := []byte{OpResponse}
	var lenBuf [2]byte
	binary.BigEndian.PutUint16(lenBuf[:], uint16(len(certBytes)))
	out = append(out, lenBuf[:]...)
	out = append(out, certBytes...)
	out = append(out, curve.ScalarToBytes(r)...)
	return out
}

// DecodeResponse parses an issuance response. The certificate must be
// on the enrollment curve: a certificate's encoding names its own
// curve, and one on another curve can still fit the response length.
// An OpError reply returns an error wrapping ErrRejected, with the
// gateway's reason quoted (%q, so control bytes arrive escaped) and
// cut to maxReasonLen bytes; every other failure wraps ErrWire.
func DecodeResponse(curve *ec.Curve, data []byte) (*ecqv.Certificate, *big.Int, error) {
	if len(data) < 3 {
		return nil, nil, fmt.Errorf("%w: short response", ErrWire)
	}
	if data[0] == OpError {
		reason := data[1:]
		if len(reason) > maxReasonLen {
			return nil, nil, fmt.Errorf("%w: %q (cut from %d bytes)", ErrRejected, reason[:maxReasonLen], len(reason))
		}
		return nil, nil, fmt.Errorf("%w: %q", ErrRejected, reason)
	}
	if data[0] != OpResponse {
		return nil, nil, fmt.Errorf("%w: op %#x", ErrWire, data[0])
	}
	certLen := int(binary.BigEndian.Uint16(data[1:3]))
	if len(data) != 3+certLen+curve.ByteLen() {
		return nil, nil, fmt.Errorf("%w: response length %d", ErrWire, len(data))
	}
	cert, err := ecqv.Decode(data[3 : 3+certLen])
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	if cert.Curve != curve {
		return nil, nil, fmt.Errorf("%w: %s certificate, enrolling on %s", ErrWire, cert.Curve.Name, curve.Name)
	}
	r, err := curve.ScalarFromBytes(data[3+certLen:])
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrWire, err)
	}
	return cert, r, nil
}

// EncodeError serializes a rejection.
func EncodeError(reason string) []byte {
	return append([]byte{OpError}, []byte(reason)...)
}

// Gateway is the CA side of the enrollment protocol.
type Gateway struct {
	CA       *ecqv.CA
	Validity time.Duration
	Usage    ecqv.KeyUsage
	// Clock supplies issuance time; nil selects time.Now.
	Clock func() time.Time
	// Authorize decides whether a subject may enroll; nil allows all.
	Authorize func(id ecqv.ID) bool
}

// Handle processes one enrollment message and returns the reply.
func (g *Gateway) Handle(data []byte) []byte {
	req, err := DecodeRequest(g.CA.Curve, data)
	if err != nil {
		return EncodeError("malformed request")
	}
	if g.Authorize != nil && !g.Authorize(req.SubjectID) {
		return EncodeError("subject not authorized")
	}
	now := time.Now()
	if g.Clock != nil {
		now = g.Clock()
	}
	validity := g.Validity
	if validity == 0 {
		validity = 24 * time.Hour
	}
	usage := g.Usage
	if usage == 0 {
		usage = ecqv.UsageKeyAgreement | ecqv.UsageSignature
	}
	resp, err := g.CA.Issue(ecqv.Request{SubjectID: req.SubjectID, R: req.R}, ecqv.IssueParams{
		ValidFrom: now,
		ValidTo:   now.Add(validity),
		KeyUsage:  usage,
	})
	if err != nil {
		return EncodeError("issuance failed")
	}
	return EncodeResponse(g.CA.Curve, resp.Cert, resp.R)
}

// Device is the enrolling side.
type Device struct {
	Curve *ec.Curve
	ID    ecqv.ID
	CAPub ec.Point
	Rand  io.Reader

	secret *ecqv.RequestSecret
}

// Start produces the enrollment request bytes.
func (d *Device) Start() ([]byte, error) {
	req, sec, err := ecqv.NewRequest(d.Curve, d.ID, d.Rand)
	if err != nil {
		return nil, err
	}
	d.secret = sec
	return EncodeRequest(d.Curve, Request{SubjectID: d.ID, R: req.R}), nil
}

// Finish consumes the gateway response, reconstructs and verifies the
// key pair, and returns the usable credentials.
func (d *Device) Finish(data []byte) (*ecqv.Certificate, *big.Int, error) {
	if d.secret == nil {
		return nil, nil, errors.New("enroll: Finish before Start")
	}
	cert, r, err := DecodeResponse(d.Curve, data)
	if err != nil {
		return nil, nil, err
	}
	if cert.SubjectID != d.ID {
		return nil, nil, errors.New("enroll: response subject mismatch")
	}
	priv, _, err := ecqv.ReconstructPrivateKey(d.secret, &ecqv.Response{Cert: cert, R: r}, d.CAPub)
	if err != nil {
		return nil, nil, fmt.Errorf("enroll: reconstruction check: %w", err)
	}
	d.secret = nil // single use
	return cert, priv, nil
}
