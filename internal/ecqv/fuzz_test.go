package ecqv

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzECQVDecode feeds peer bytes to Decode, the parser every
// certificate a handshake peer sends goes through. A rejection must
// wrap ErrBadCertificate. An accepted certificate must carry a
// reconstruction point on its curve by the math/big check
// (ec.Curve.IsOnCurve) and other than the point at infinity, re-encode
// to the input bytes, and decode again from its own encoding to an
// equal certificate.
//
// The committed corpus (testdata/fuzz/FuzzECQVDecode) names a valid
// certificate on each bundled curve and one broken field at a time:
// version, curve code, length, reserved byte, a reconstruction x with
// no curve point, an infinity point and an unknown point prefix.
func FuzzECQVDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cert, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadCertificate) {
				t.Fatalf("Decode(%x): error %v does not wrap ErrBadCertificate", data, err)
			}
			return
		}
		if cert.PubRecon.IsInfinity() || !cert.Curve.IsOnCurve(cert.PubRecon) {
			t.Fatalf("Decode(%x): reconstruction point %v is not on %s", data, cert.PubRecon, cert.Curve.Name)
		}
		enc := cert.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("Decode(%x) re-encodes as %x", data, enc)
		}
		again, err := Decode(enc)
		if err != nil || !again.Equal(cert) {
			t.Fatalf("re-decoding %x gave %v, %v; want %v", enc, again, err, cert)
		}
	})
}
