package ecdsa

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"repro/internal/ec"
	"repro/internal/ecqv"
)

// FuzzDecodeRaw feeds peer bytes to DecodeRaw on every bundled curve.
// A rejection must wrap ErrInvalidSignature and happen exactly when
// the length is not 2·ByteLen or r or s lies outside [1, n−1]; an
// accepted signature must re-encode to the input bytes.
//
// The committed corpus (testdata/fuzz/FuzzDecodeRaw) names a valid
// P-256 signature, r = 0, s = n, a byte short and a byte long.
func FuzzDecodeRaw(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range ec.Curves() {
			checkDecodeRaw(t, c, data)
		}
	})
}

// checkDecodeRaw runs FuzzDecodeRaw's checks on one curve.
func checkDecodeRaw(t *testing.T, c *ec.Curve, data []byte) {
	t.Helper()
	sig, err := DecodeRaw(c, data)
	inRange := func(k *big.Int) bool { return k.Sign() > 0 && k.Cmp(c.N) < 0 }
	valid := len(data) == 2*c.ByteLen() &&
		inRange(new(big.Int).SetBytes(data[:c.ByteLen()])) &&
		inRange(new(big.Int).SetBytes(data[c.ByteLen():]))
	if err != nil {
		if !errors.Is(err, ErrInvalidSignature) {
			t.Fatalf("%s: DecodeRaw(%x): error %v does not wrap ErrInvalidSignature", c.Name, data, err)
		}
		if valid {
			t.Fatalf("%s: DecodeRaw(%x) rejected a well-formed signature: %v", c.Name, data, err)
		}
		return
	}
	if !valid {
		t.Fatalf("%s: DecodeRaw(%x) accepted r = %x, s = %x", c.Name, data, sig.R, sig.S)
	}
	if enc := sig.EncodeRaw(c); !bytes.Equal(enc, data) {
		t.Fatalf("%s: DecodeRaw(%x) re-encodes as %x", c.Name, data, enc)
	}
}

// FuzzVerifyImplicit diffs VerifyImplicit against explicit extraction
// followed by VerifyDigest. The certificate, the CA key and the
// signature come through the decoders a handshake peer's bytes reach
// (ecqv.Decode, ec.Curve.DecodePoint and DecodeRaw, all on the
// certificate's curve); inputs a decoder rejects are skipped. With e
// empty, e = H(Cert) and the reference is ecqv.ExtractPublicKey; a
// non-empty e replaces H(Cert), so that scalars no certificate hashes
// to stay reachable, and the reference is equation (1) with that e
// through ec.Curve.ScalarMult and Add. Either way an extraction that
// fails or yields the identity counts as a reject.
//
// The committed corpus (testdata/fuzz/FuzzVerifyImplicit) holds an
// honest P-256 certificate and signature, r ± 1, s ± 1, a wrong
// digest, a wrong CA key, e ≡ 0 with the CA's own signature (so that
// Q_U = Q_CA and the a·P term vanishes), and a CA key of −e·P_U with a
// signature forged to verify under the identity.
func FuzzVerifyImplicit(f *testing.F) {
	f.Fuzz(func(t *testing.T, certBytes, caBytes, sigBytes, digest, eBytes []byte) {
		cert, err := ecqv.Decode(certBytes)
		if err != nil {
			return
		}
		c := cert.Curve
		ca, err := c.DecodePoint(caBytes)
		if err != nil {
			return
		}
		sig, err := DecodeRaw(c, sigBytes)
		if err != nil {
			return
		}
		var want bool
		e := cert.HashToScalar()
		if len(eBytes) == 0 {
			q, err := ecqv.ExtractPublicKey(cert, ca)
			want = err == nil && (&PublicKey{Curve: c, Q: q}).VerifyDigest(digest, sig)
		} else {
			e = new(big.Int).SetBytes(eBytes)
			q := c.Add(c.ScalarMult(cert.PubRecon, e), ca)
			want = !ca.IsInfinity() && !q.IsInfinity() && (&PublicKey{Curve: c, Q: q}).VerifyDigest(digest, sig)
		}
		if got := VerifyImplicit(c, cert.PubRecon, e, ca, digest, sig); got != want {
			t.Fatalf("%s: VerifyImplicit(cert %x, CA %x, sig %x, digest %x, e %x) = %v, explicit extraction and VerifyDigest say %v",
				c.Name, certBytes, caBytes, sigBytes, digest, eBytes, got, want)
		}
	})
}
