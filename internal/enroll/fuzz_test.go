package enroll

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"unicode"

	"repro/internal/ec"
)

// FuzzEnrollDecode feeds the same bytes to DecodeRequest, as the
// gateway reads a device's request, and to DecodeResponse, as a device
// reads the gateway's reply, both on P-256. The properties:
//
//   - no panic;
//   - every rejection wraps ErrWire, or for a response ErrRejected
//     when it is the gateway's OpError refusal, whose reason arrives
//     quoted: the error text holds no control byte;
//   - a decoded point (the request's R, the certificate's
//     reconstruction point) is on P-256 by the math/big check
//     (ec.Curve.IsOnCurve);
//   - an accepted certificate is on P-256, the enrollment curve;
//   - an accepted message encodes back to the input bytes.
//
// The committed corpus (testdata/fuzz/FuzzEnrollDecode) names a valid
// P-256 request and response, a P-192 certificate in a response of
// P-256 length, an OpError reply, a short and an over-long message and
// a request whose R is off the curve.
func FuzzEnrollDecode(f *testing.F) {
	curve := ec.P256()
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(curve, data); err != nil {
			if !errors.Is(err, ErrWire) {
				t.Fatalf("DecodeRequest(%x): error %v does not wrap ErrWire", data, err)
			}
		} else {
			if !curve.IsOnCurve(req.R) {
				t.Fatalf("DecodeRequest(%x): R = %v is not on P-256", data, req.R)
			}
			if enc := EncodeRequest(curve, req); !bytes.Equal(enc, data) {
				t.Fatalf("DecodeRequest(%x) re-encodes as %x", data, enc)
			}
		}

		cert, r, err := DecodeResponse(curve, data)
		if err != nil {
			if !errors.Is(err, ErrWire) && !errors.Is(err, ErrRejected) {
				t.Fatalf("DecodeResponse(%x): error %v wraps neither ErrWire nor ErrRejected", data, err)
			}
			if strings.ContainsFunc(err.Error(), unicode.IsControl) {
				t.Fatalf("DecodeResponse(%x): error %q carries a control character", data, err)
			}
			return
		}
		if cert.Curve != curve {
			t.Fatalf("DecodeResponse(%x): accepted a %s certificate", data, cert.Curve.Name)
		}
		if !curve.IsOnCurve(cert.PubRecon) {
			t.Fatalf("DecodeResponse(%x): reconstruction point %v is not on P-256", data, cert.PubRecon)
		}
		if enc := EncodeResponse(curve, cert, r); !bytes.Equal(enc, data) {
			t.Fatalf("DecodeResponse(%x) re-encodes as %x", data, enc)
		}
	})
}
