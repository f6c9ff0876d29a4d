package enroll

import (
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
)

func newDetRand(seed int64) io.Reader { return detrand.NewReader(uint64(seed)) }

func newGateway(t *testing.T, seed int64) *Gateway {
	t.Helper()
	ca, err := ecqv.NewCA(ec.P256(), ecqv.NewID("gateway-ca"), newDetRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &Gateway{CA: ca, Clock: func() time.Time { return time.Unix(1700000000, 0) }}
}

func TestEnrollmentRoundTrip(t *testing.T) {
	gw := newGateway(t, 1)
	dev := &Device{
		Curve: ec.P256(),
		ID:    ecqv.NewID("ecu-17"),
		CAPub: gw.CA.PublicKey(),
		Rand:  newDetRand(2),
	}
	req, err := dev.Start()
	if err != nil {
		t.Fatal(err)
	}
	resp := gw.Handle(req)
	cert, priv, err := dev.Finish(resp)
	if err != nil {
		t.Fatal(err)
	}
	if cert.SubjectID != dev.ID {
		t.Error("certificate subject wrong")
	}

	// The enrolled credentials must actually work: sign with the
	// reconstructed key, verify under the extracted public key.
	key, err := ecdsa.NewPrivateKey(ec.P256(), priv)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := key.Sign([]byte("proof of possession"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ecqv.ExtractPublicKey(cert, gw.CA.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if !(&ecdsa.PublicKey{Curve: ec.P256(), Q: q}).Verify([]byte("proof of possession"), sig) {
		t.Fatal("enrolled credentials do not verify")
	}
}

func TestTamperedResponseRejected(t *testing.T) {
	gw := newGateway(t, 3)
	dev := &Device{Curve: ec.P256(), ID: ecqv.NewID("ecu"), CAPub: gw.CA.PublicKey(), Rand: newDetRand(4)}
	req, _ := dev.Start()
	resp := gw.Handle(req)

	// Flip certificate and r bytes: the reconstruction check must
	// catch every one.
	for _, idx := range []int{10, 40, len(resp) - 5} {
		devF := &Device{Curve: ec.P256(), ID: ecqv.NewID("ecu"), CAPub: gw.CA.PublicKey(), Rand: newDetRand(4)}
		reqF, _ := devF.Start()
		respF := gw.Handle(reqF)
		respF[idx] ^= 0x01
		if _, _, err := devF.Finish(respF); err == nil {
			t.Errorf("tampered response byte %d accepted", idx)
		}
	}
	// Untampered still works.
	if _, _, err := dev.Finish(resp); err != nil {
		t.Fatalf("clean response rejected: %v", err)
	}
}

func TestWrongCAKeyRejected(t *testing.T) {
	gw := newGateway(t, 5)
	rogue, _ := ecqv.NewCA(ec.P256(), ecqv.NewID("rogue"), newDetRand(6))
	dev := &Device{Curve: ec.P256(), ID: ecqv.NewID("ecu"), CAPub: rogue.PublicKey(), Rand: newDetRand(7)}
	req, _ := dev.Start()
	if _, _, err := dev.Finish(gw.Handle(req)); err == nil {
		t.Fatal("response from a different CA accepted")
	}
}

func TestAuthorizationPolicy(t *testing.T) {
	gw := newGateway(t, 8)
	gw.Authorize = func(id ecqv.ID) bool { return id.String() != "blocked" }

	ok := &Device{Curve: ec.P256(), ID: ecqv.NewID("allowed"), CAPub: gw.CA.PublicKey(), Rand: newDetRand(9)}
	req, _ := ok.Start()
	if _, _, err := ok.Finish(gw.Handle(req)); err != nil {
		t.Fatalf("allowed subject rejected: %v", err)
	}

	bad := &Device{Curve: ec.P256(), ID: ecqv.NewID("blocked"), CAPub: gw.CA.PublicKey(), Rand: newDetRand(10)}
	req2, _ := bad.Start()
	if _, _, err := bad.Finish(gw.Handle(req2)); err == nil {
		t.Fatal("blocked subject enrolled")
	}
}

func TestGatewayRejectsGarbage(t *testing.T) {
	gw := newGateway(t, 11)
	for _, data := range [][]byte{nil, {0x41}, {0x99, 1, 2, 3}, make([]byte, 200)} {
		resp := gw.Handle(data)
		if len(resp) == 0 || resp[0] != OpError {
			t.Errorf("garbage %x did not produce an error reply", data)
		}
	}
	// Off-curve request point.
	good := &Device{Curve: ec.P256(), ID: ecqv.NewID("x"), CAPub: gw.CA.PublicKey(), Rand: newDetRand(12)}
	req, _ := good.Start()
	req[20] ^= 0x01 // corrupt R
	resp := gw.Handle(req)
	if resp[0] != OpError {
		t.Error("corrupted request point accepted")
	}
}

func TestDeviceStateMachine(t *testing.T) {
	gw := newGateway(t, 13)
	dev := &Device{Curve: ec.P256(), ID: ecqv.NewID("ecu"), CAPub: gw.CA.PublicKey(), Rand: newDetRand(14)}
	// Finish before Start.
	if _, _, err := dev.Finish([]byte{OpResponse}); err == nil {
		t.Error("Finish before Start accepted")
	}
	req, _ := dev.Start()
	resp := gw.Handle(req)
	if _, _, err := dev.Finish(resp); err != nil {
		t.Fatal(err)
	}
	// Secret is single-use.
	if _, _, err := dev.Finish(resp); err == nil {
		t.Error("request secret reused")
	}
}

func TestSubjectMismatchRejected(t *testing.T) {
	gw := newGateway(t, 15)
	// Device A starts; response for device B (different subject) must
	// be rejected even if validly issued.
	devA := &Device{Curve: ec.P256(), ID: ecqv.NewID("ecu-a"), CAPub: gw.CA.PublicKey(), Rand: newDetRand(16)}
	devB := &Device{Curve: ec.P256(), ID: ecqv.NewID("ecu-b"), CAPub: gw.CA.PublicKey(), Rand: newDetRand(17)}
	reqA, _ := devA.Start()
	reqB, _ := devB.Start()
	_ = reqA
	respB := gw.Handle(reqB)
	if _, _, err := devA.Finish(respB); err == nil {
		t.Fatal("response for another subject accepted")
	}
}

// TestCrossCurveCertificateRejected: a certificate's encoding names its
// own curve, so a P-192 certificate followed by a 32-byte r has the
// length of a P-256 response. DecodeResponse must refuse it as
// malformed, and Finish must report that, not a failed reconstruction.
func TestCrossCurveCertificateRejected(t *testing.T) {
	ca, err := ecqv.NewCA(ec.P192(), ecqv.NewID("p192-ca"), newDetRand(18))
	if err != nil {
		t.Fatal(err)
	}
	gw := &Gateway{CA: ca, Clock: func() time.Time { return time.Unix(1700000000, 0) }}
	dev192 := &Device{Curve: ec.P192(), ID: ecqv.NewID("ecu"), CAPub: ca.PublicKey(), Rand: newDetRand(19)}
	req, err := dev192.Start()
	if err != nil {
		t.Fatal(err)
	}
	cert, r, err := DecodeResponse(ec.P192(), gw.Handle(req))
	if err != nil {
		t.Fatal(err)
	}
	cross := EncodeResponse(ec.P256(), cert, r)

	if got, _, err := DecodeResponse(ec.P256(), cross); !errors.Is(err, ErrWire) {
		t.Fatalf("P-192 certificate in a P-256 response: cert %v, err %v; want ErrWire", got, err)
	}
	dev := &Device{Curve: ec.P256(), ID: ecqv.NewID("ecu"), CAPub: newGateway(t, 20).CA.PublicKey(), Rand: newDetRand(21)}
	if _, err := dev.Start(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dev.Finish(cross); !errors.Is(err, ErrWire) {
		t.Fatalf("Finish of a P-192 certificate: %v, want ErrWire", err)
	}
}

// TestRejectionReasonQuoted sends OpError replies whose reasons carry
// control characters, and one longer than maxReasonLen: the error
// wraps ErrRejected (not ErrWire), quotes the reason with its control
// bytes escaped, and quotes at most maxReasonLen bytes of it.
func TestRejectionReasonQuoted(t *testing.T) {
	for _, reason := range []string{
		"subject\x1b[2J blocked\r\nOK enrolled\x00",
		strings.Repeat("\a", 3*maxReasonLen),
	} {
		_, _, err := DecodeResponse(ec.P256(), EncodeError(reason))
		if !errors.Is(err, ErrRejected) || errors.Is(err, ErrWire) {
			t.Fatalf("OpError reply %q: error %v, want ErrRejected alone", reason, err)
		}
		msg := err.Error()
		if strings.ContainsFunc(msg, unicode.IsControl) {
			t.Fatalf("error %q carries a control character of the reason", msg)
		}
		quoted := strconv.Quote(reason[:min(len(reason), maxReasonLen)])
		if !strings.Contains(msg, quoted) {
			t.Fatalf("error %q does not quote the reason as %s", msg, quoted)
		}
		if len(reason) > maxReasonLen && strings.Contains(msg, strconv.Quote(reason[:maxReasonLen+1])) {
			t.Fatalf("error %q quotes more than %d bytes of the reason", msg, maxReasonLen)
		}
	}
}
