package ecqv

import (
	"io"
	"math/big"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecdsa"
)

func newDetRand(seed int64) io.Reader { return detrand.NewReader(uint64(seed)) }

func defaultParams() IssueParams {
	return IssueParams{
		ValidFrom: time.Unix(1700000000, 0),
		ValidTo:   time.Unix(1700000000+86400, 0),
		KeyUsage:  UsageKeyAgreement | UsageSignature,
	}
}

// issueOne runs a complete issuance for tests and returns the device's
// reconstructed key material.
func issueOne(t *testing.T, curve *ec.Curve, rng io.Reader, id string) (*CA, *Certificate, *big.Int, ec.Point) {
	t.Helper()
	ca, err := NewCA(curve, NewID("test-ca"), rng)
	if err != nil {
		t.Fatal(err)
	}
	req, sec, err := NewRequest(curve, NewID(id), rng)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ca.Issue(req, defaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d, q, err := ReconstructPrivateKey(sec, resp, ca.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	return ca, resp.Cert, d, q
}

func TestIssuanceRoundTrip(t *testing.T) {
	rng := newDetRand(1)
	for _, curve := range ec.Curves() {
		t.Run(curve.Name, func(t *testing.T) {
			ca, cert, d, q := issueOne(t, curve, rng, "device-a")

			// The fundamental ECQV contract: the subject's private key
			// matches the public key any relying party extracts from
			// the certificate alone.
			extracted, err := ExtractPublicKey(cert, ca.PublicKey())
			if err != nil {
				t.Fatal(err)
			}
			if !extracted.Equal(q) {
				t.Fatal("extracted public key != reconstructed public key")
			}
			if !curve.ScalarBaseMult(d).Equal(extracted) {
				t.Fatal("d·G != extracted public key")
			}
		})
	}
}

func TestEquationOne(t *testing.T) {
	// Explicitly verify the paper's equation (1):
	// Q_X = Hash(Cert_X)·Decode(Cert_X) + Q_CA.
	rng := newDetRand(2)
	curve := ec.P256()
	ca, cert, _, q := issueOne(t, curve, rng, "device-eq1")

	e := cert.HashToScalar()
	manual := curve.Add(curve.ScalarMult(cert.PubRecon, e), ca.PublicKey())
	if !manual.Equal(q) {
		t.Fatal("equation (1) does not hold")
	}
}

func TestReconstructedKeySignsECDSA(t *testing.T) {
	// End-to-end: a device signs with its ECQV-reconstructed private
	// key and a verifier checks with the key extracted from the
	// certificate — the exact authentication flow of Algorithms 1–2.
	rng := newDetRand(3)
	curve := ec.P256()
	ca, cert, d, _ := issueOne(t, curve, rng, "device-sig")

	signKey, err := ecdsa.NewPrivateKey(curve, d)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("XG_A || XG_B")
	sig, err := signKey.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}

	q, err := ExtractPublicKey(cert, ca.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	pub := &ecdsa.PublicKey{Curve: curve, Q: q}
	if !pub.Verify(msg, sig) {
		t.Fatal("signature under reconstructed key did not verify")
	}
}

func TestCertificateBinding(t *testing.T) {
	// Two devices issued by the same CA must get distinct keys, and
	// neither's signature verifies under the other's certificate.
	rng := newDetRand(4)
	curve := ec.P256()
	ca, err := NewCA(curve, NewID("ca"), rng)
	if err != nil {
		t.Fatal(err)
	}

	issue := func(id string) (*Certificate, *big.Int) {
		req, sec, err := NewRequest(curve, NewID(id), rng)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ca.Issue(req, defaultParams())
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := ReconstructPrivateKey(sec, resp, ca.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		return resp.Cert, d
	}
	certA, dA := issue("alice")
	certB, dB := issue("bob")

	if dA.Cmp(dB) == 0 {
		t.Fatal("two devices reconstructed the same private key")
	}
	if certA.Serial == certB.Serial {
		t.Fatal("serial reuse")
	}

	keyA, _ := ecdsa.NewPrivateKey(curve, dA)
	sig, _ := keyA.Sign([]byte("m"))
	qB, _ := ExtractPublicKey(certB, ca.PublicKey())
	if (&ecdsa.PublicKey{Curve: curve, Q: qB}).Verify([]byte("m"), sig) {
		t.Fatal("alice's signature verified under bob's certificate")
	}
}

func TestTamperedCertificateBreaksKeys(t *testing.T) {
	// The implicit-certificate property: altering any certificate byte
	// silently changes the extracted public key so signatures stop
	// verifying. (No explicit signature check exists to reject it.)
	rng := newDetRand(5)
	curve := ec.P256()
	ca, cert, d, _ := issueOne(t, curve, rng, "device-tamper")

	signKey, _ := ecdsa.NewPrivateKey(curve, d)
	sig, _ := signKey.Sign([]byte("msg"))

	enc := cert.Encode()
	for _, idx := range []int{4, 12, 44, 60} { // serial, subject, validity, ext
		mod := append([]byte{}, enc...)
		mod[idx] ^= 0x01
		forged, err := Decode(mod)
		if err != nil {
			t.Fatalf("byte %d: decode: %v", idx, err)
		}
		q, err := ExtractPublicKey(forged, ca.PublicKey())
		if err != nil {
			t.Fatalf("byte %d: extract: %v", idx, err)
		}
		if (&ecdsa.PublicKey{Curve: curve, Q: q}).Verify([]byte("msg"), sig) {
			t.Errorf("byte %d: signature still verifies after tampering", idx)
		}
	}
}

func TestEncodingRoundTrip(t *testing.T) {
	rng := newDetRand(6)
	for _, curve := range ec.Curves() {
		t.Run(curve.Name, func(t *testing.T) {
			_, cert, _, _ := issueOne(t, curve, rng, "device-enc")
			enc := cert.Encode()
			if len(enc) != EncodedSize(curve) {
				t.Fatalf("encoded size %d, want %d", len(enc), EncodedSize(curve))
			}
			dec, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !dec.Equal(cert) {
				t.Fatal("certificate round trip failed")
			}
			if !dec.PubRecon.Equal(cert.PubRecon) {
				t.Fatal("reconstruction point round trip failed")
			}
		})
	}
}

func TestMinimalEncodingIs101Bytes(t *testing.T) {
	// Table II charges Cert(101): the P-256 minimal encoding must be
	// exactly 101 bytes.
	if got := EncodedSize(ec.P256()); got != 101 {
		t.Fatalf("P-256 certificate size = %d, want 101", got)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	rng := newDetRand(7)
	_, cert, _, _ := issueOne(t, ec.P256(), rng, "device-bad")
	enc := cert.Encode()

	cases := map[string][]byte{
		"empty":     {},
		"short":     enc[:50],
		"long":      append(append([]byte{}, enc...), 0),
		"version":   func() []byte { b := append([]byte{}, enc...); b[0] = 9; return b }(),
		"curve":     func() []byte { b := append([]byte{}, enc...); b[1] = 9; return b }(),
		"reserved":  func() []byte { b := append([]byte{}, enc...); b[3] = 1; return b }(),
		"bad point": func() []byte { b := append([]byte{}, enc...); b[certHeaderSize] = 0x07; return b }(),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted malformed certificate", name)
		}
	}
}

func TestValidity(t *testing.T) {
	rng := newDetRand(8)
	_, cert, _, _ := issueOne(t, ec.P256(), rng, "device-valid")

	from := time.Unix(cert.ValidFrom, 0)
	to := time.Unix(cert.ValidTo, 0)
	if !cert.ValidAt(from) || !cert.ValidAt(to) {
		t.Error("boundary instants must be valid")
	}
	if cert.ValidAt(from.Add(-time.Second)) {
		t.Error("before window reported valid")
	}
	if cert.ValidAt(to.Add(time.Second)) {
		t.Error("after window reported valid")
	}

	if !cert.PermitsUsage(UsageSignature) || !cert.PermitsUsage(UsageKeyAgreement) {
		t.Error("issued usages not granted")
	}
	if cert.PermitsUsage(KeyUsage(0x80)) {
		t.Error("ungranted usage reported as permitted")
	}
}

func TestIssueRejectsBadRequests(t *testing.T) {
	rng := newDetRand(9)
	curve := ec.P256()
	ca, _ := NewCA(curve, NewID("ca"), rng)

	// Infinity request point.
	if _, err := ca.Issue(Request{SubjectID: NewID("x"), R: ec.Infinity()}, defaultParams()); err == nil {
		t.Error("infinity request point accepted")
	}
	// Off-curve request point.
	bad := ec.Point{X: big.NewInt(1), Y: big.NewInt(1)}
	if _, err := ca.Issue(Request{SubjectID: NewID("x"), R: bad}, defaultParams()); err == nil {
		t.Error("off-curve request point accepted")
	}
	// Empty validity window.
	req, _, _ := NewRequest(curve, NewID("x"), rng)
	p := defaultParams()
	p.ValidTo = p.ValidFrom
	if _, err := ca.Issue(req, p); err == nil {
		t.Error("empty validity window accepted")
	}
}

func TestReconstructRejectsCorruptedResponse(t *testing.T) {
	rng := newDetRand(10)
	curve := ec.P256()
	ca, _ := NewCA(curve, NewID("ca"), rng)
	req, sec, _ := NewRequest(curve, NewID("dev"), rng)
	resp, err := ca.Issue(req, defaultParams())
	if err != nil {
		t.Fatal(err)
	}

	// Corrupted r: consistency check Q = d·G must fail.
	badR := &Response{Cert: resp.Cert, R: new(big.Int).Add(resp.R, big.NewInt(1))}
	if _, _, err := ReconstructPrivateKey(sec, badR, ca.PublicKey()); err == nil {
		t.Error("corrupted r accepted")
	}
	// r out of range.
	outR := &Response{Cert: resp.Cert, R: new(big.Int).Set(curve.N)}
	if _, _, err := ReconstructPrivateKey(sec, outR, ca.PublicKey()); err == nil {
		t.Error("out-of-range r accepted")
	}
	// Wrong CA public key.
	otherCA, _ := NewCA(curve, NewID("other"), rng)
	if _, _, err := ReconstructPrivateKey(sec, resp, otherCA.PublicKey()); err == nil {
		t.Error("wrong CA key accepted")
	}
	// Nil inputs.
	if _, _, err := ReconstructPrivateKey(nil, resp, ca.PublicKey()); err == nil {
		t.Error("nil secret accepted")
	}
	if _, _, err := ReconstructPrivateKey(sec, nil, ca.PublicKey()); err == nil {
		t.Error("nil response accepted")
	}
	// Valid response still reconstructs (sanity after all the rejects).
	if _, _, err := ReconstructPrivateKey(sec, resp, ca.PublicKey()); err != nil {
		t.Errorf("valid response rejected: %v", err)
	}
}

func TestExtractRejectsBadInputs(t *testing.T) {
	rng := newDetRand(11)
	curve := ec.P256()
	ca, cert, _, _ := issueOne(t, curve, rng, "device-x")

	if _, err := ExtractPublicKey(nil, ca.PublicKey()); err == nil {
		t.Error("nil certificate accepted")
	}
	badCert := *cert
	badCert.PubRecon = ec.Infinity()
	if _, err := ExtractPublicKey(&badCert, ca.PublicKey()); err == nil {
		t.Error("infinity reconstruction point accepted")
	}
	if _, err := ExtractPublicKey(cert, ec.Infinity()); err == nil {
		t.Error("infinity CA key accepted")
	}
	offCurve := ec.Point{X: big.NewInt(2), Y: big.NewInt(3)}
	if _, err := ExtractPublicKey(cert, offCurve); err == nil {
		t.Error("off-curve CA key accepted")
	}
}

func TestIDString(t *testing.T) {
	if NewID("bms-controller").String() != "bms-controller" {
		t.Error("ID round trip failed")
	}
	long := NewID("this-name-is-longer-than-sixteen-bytes")
	if len(long.String()) != IDSize {
		t.Error("long ID not truncated")
	}
	var zero ID
	if zero.String() != "" {
		t.Error("zero ID must render empty")
	}
}

func TestSelfCertificate(t *testing.T) {
	rng := newDetRand(12)
	ca, _ := NewCA(ec.P256(), NewID("root"), rng)
	cert, err := ca.SelfCertificate(defaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if cert.SubjectID != ca.ID || cert.IssuerID != ca.ID {
		t.Error("self certificate identity wrong")
	}
	if !cert.PubRecon.Equal(ca.PublicKey()) {
		t.Error("self certificate must carry the CA key directly")
	}
}

func TestNewCAFromKey(t *testing.T) {
	rng := newDetRand(13)
	curve := ec.P256()
	original, err := NewCA(curve, NewID("persisted-ca"), rng)
	if err != nil {
		t.Fatal(err)
	}
	// Issue one certificate with the original CA.
	req, sec, _ := NewRequest(curve, NewID("dev"), rng)
	resp, err := original.Issue(req, defaultParams())
	if err != nil {
		t.Fatal(err)
	}

	// Restore from the persisted scalar; the restored CA must have the
	// same public key so previously issued certificates keep working.
	restored, err := NewCAFromKey(curve, original.ID, original.PrivateKey(), original.NextSerial(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.PublicKey().Equal(original.PublicKey()) {
		t.Fatal("restored CA public key differs")
	}
	if _, _, err := ReconstructPrivateKey(sec, resp, restored.PublicKey()); err != nil {
		t.Fatalf("pre-restore certificate unusable: %v", err)
	}
	// Serial continuity.
	req2, _, _ := NewRequest(curve, NewID("dev2"), rng)
	resp2, err := restored.Issue(req2, defaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cert.Serial != resp.Cert.Serial+1 {
		t.Errorf("serial %d, want %d", resp2.Cert.Serial, resp.Cert.Serial+1)
	}

	// Invalid keys rejected.
	if _, err := NewCAFromKey(curve, NewID("x"), nil, 1, rng); err == nil {
		t.Error("nil key accepted")
	}
	if _, err := NewCAFromKey(curve, NewID("x"), curve.N, 1, rng); err == nil {
		t.Error("out-of-range key accepted")
	}
	// Zero serial defaults to 1.
	fresh, err := NewCAFromKey(curve, NewID("x"), big.NewInt(7), 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.NextSerial() != 1 {
		t.Errorf("zero serial not defaulted: %d", fresh.NextSerial())
	}
}

// TestQuickIssuance property-tests the issuance pipeline across many
// deterministic randomness streams.
func TestQuickIssuance(t *testing.T) {
	curve := ec.P256()
	f := func(seed int64) bool {
		rng := newDetRand(seed)
		ca, err := NewCA(curve, NewID("ca"), rng)
		if err != nil {
			return false
		}
		req, sec, err := NewRequest(curve, NewID("dev"), rng)
		if err != nil {
			return false
		}
		resp, err := ca.Issue(req, defaultParams())
		if err != nil {
			return false
		}
		d, q, err := ReconstructPrivateKey(sec, resp, ca.PublicKey())
		if err != nil {
			return false
		}
		ext, err := ExtractPublicKey(resp.Cert, ca.PublicKey())
		return err == nil && ext.Equal(q) && curve.ScalarBaseMult(d).Equal(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 16}); err != nil {
		t.Error(err)
	}
}
