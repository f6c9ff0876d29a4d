package ecqv

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"repro/internal/ec"
)

// FuzzECQVDecode feeds peer bytes to Decode, the parser every
// certificate a handshake peer sends goes through. A rejection must
// wrap ErrBadCertificate. An accepted certificate must carry a
// reconstruction point on its curve (ec.Curve.IsOnCurve) and other
// than the point at infinity, re-encode
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

// FuzzReconstructBatch issues count%8 + 1 responses under one P-256 CA
// from the stream seed, corrupts item%n of them in one of four ways
// (kind%4), and requires ReconstructBatch to give every item
// ReconstructPrivateKey's verdict: the same key, or an error with the
// same text. The corruptions are
//
//	0: flip bit bit%256 of r, which may also push r past n;
//	1: swap r with the next item's (none in a batch of one);
//	2: re-issue the certificate to another P_U, a request the subject
//	   never made;
//	3: have another CA issue the subject's request.
//
// The committed corpus (testdata/fuzz/FuzzReconstructBatch) names each
// corruption at the first, a middle and the last item of an 8-item
// batch, in a batch of one, r's lowest and highest bits, and an
// uncorrupted swap.
func FuzzReconstructBatch(f *testing.F) {
	curve := ec.P256()
	f.Fuzz(func(t *testing.T, seed uint64, count, item, kind uint8, bit uint16) {
		n := int(count%8) + 1
		ca, reqs, secs, resps := issueMany(t, curve, int64(seed), n)
		i := int(item) % n
		j := (i + 1) % n
		switch kind % 4 {
		case 0:
			r := new(big.Int).Set(resps[i].R)
			b := int(bit % 256)
			resps[i] = &Response{Cert: resps[i].Cert, R: r.SetBit(r, b, r.Bit(b)^1)}
		case 1:
			ri, rj := resps[i].R, resps[j].R
			resps[i] = &Response{Cert: resps[i].Cert, R: rj}
			resps[j] = &Response{Cert: resps[j].Cert, R: ri}
		case 2:
			k, err := curve.RandomScalar(newDetRand(int64(seed) + 1))
			if err != nil {
				t.Fatal(err)
			}
			other := Request{SubjectID: reqs[i].SubjectID, R: curve.ScalarBaseMult(k)}
			if resps[i], err = ca.Issue(other, defaultParams()); err != nil {
				t.Fatal(err)
			}
		case 3:
			other, err := NewCA(curve, NewID("other-ca"), newDetRand(int64(seed)+1))
			if err != nil {
				t.Fatal(err)
			}
			if resps[i], err = other.Issue(reqs[i], defaultParams()); err != nil {
				t.Fatal(err)
			}
		}
		keys, errs := ReconstructBatch(secs, resps, ca.PublicKey())
		requireSingleVerdicts(t, secs, resps, ca.PublicKey(), keys, errs)
	})
}
