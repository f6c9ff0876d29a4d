package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	stdecdsa "crypto/ecdsa"
	"crypto/elliptic"
	"crypto/hmac"
	"crypto/sha256"
	"math/big"
	"testing"

	"repro/internal/aead"
	"repro/internal/ec"
)

// newTestSuite builds a suite with a fresh trace and an empty,
// isolated key cache for white-box tests.
func newTestSuite(seed int64) (*suite, *Trace) {
	trace := &Trace{}
	return newSuite(ec.P256(), trace.meterFor(RoleA), newDetRand(seed), NewKeyCacheWithShared(nil)), trace
}

// newRespKeys keys the Resp construction as deriveRespKeys does.
func newRespKeys(t *testing.T, enc, mac []byte) *aead.Keys {
	t.Helper()
	keys, err := aead.New(enc, mac)
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestSealRespInvolution(t *testing.T) {
	s, _ := newTestSuite(1)
	enc := make([]byte, 16)
	mac := make([]byte, 32)
	for i := range mac {
		mac[i] = byte(i)
	}
	dsign := make([]byte, 64)
	for i := range dsign {
		dsign[i] = byte(i * 3)
	}
	keys := newRespKeys(t, enc, mac)
	sealed := s.ctrEncrypt(keys, "B->A", dsign)
	if len(sealed) != len(dsign) {
		t.Fatalf("Resp grew: %d -> %d (Table II charges 64 B)", len(dsign), len(sealed))
	}
	if bytes.Equal(sealed, dsign) {
		t.Fatal("ctrEncrypt is the identity")
	}
	opened := s.ctrEncrypt(keys, "B->A", sealed)
	if !bytes.Equal(opened, dsign) {
		t.Fatal("ctrEncrypt is not an involution")
	}
}

func TestSealRespDirectionSeparation(t *testing.T) {
	// The two Resp messages of one session must use different
	// keystream (A→B vs B→A), or XORing them would leak the signature
	// XOR.
	s, _ := newTestSuite(2)
	enc := make([]byte, 16)
	mac := make([]byte, 32)
	zero := make([]byte, 64)
	keys := newRespKeys(t, enc, mac)
	ab := s.ctrEncrypt(keys, "A->B", zero)
	ba := s.ctrEncrypt(keys, "B->A", zero)
	if bytes.Equal(ab, ba) {
		t.Fatal("directions share keystream")
	}
}

func TestSealRespKeySeparation(t *testing.T) {
	// Different MAC keys (i.e. different sessions) must give different
	// keystream even with the same enc key.
	s, _ := newTestSuite(3)
	enc := make([]byte, 16)
	mac1 := make([]byte, 32)
	mac2 := make([]byte, 32)
	mac2[0] = 1
	zero := make([]byte, 64)
	c1 := s.ctrEncrypt(newRespKeys(t, enc, mac1), "A->B", zero)
	c2 := s.ctrEncrypt(newRespKeys(t, enc, mac2), "A->B", zero)
	if bytes.Equal(c1, c2) {
		t.Fatal("sessions share keystream")
	}
}

// TestRespMatchesReference pins the bytes of every STS Resp and PORAMB
// finish echo to the standard library. Each is opened from the
// receiver's key block enc ‖ mac with crypto/aes, cipher.NewCTR and
// crypto/hmac written out: IV = HMAC-SHA-256(mac, "resp-iv|" +
// label)[:16], for the labels "B->A", "A->B", "finish|A" and
// "finish|B". An opened Resp must be a signature r ‖ s that
// crypto/ecdsa accepts under its signer's key d·G, over the signer's
// ephemeral point and then the receiver's; an opened echo must be the
// sender's certificate ‖ nonce.
func TestRespMatchesReference(t *testing.T) {
	open := func(keyBlock []byte, label string, ct []byte) []byte {
		block, err := aes.NewCipher(keyBlock[:16])
		if err != nil {
			t.Fatal(err)
		}
		m := hmac.New(sha256.New, keyBlock[16:])
		m.Write([]byte("resp-iv|" + label))
		pt := make([]byte, len(ct))
		cipher.NewCTR(block, m.Sum(nil)[:16]).XORKeyStream(pt, ct)
		return pt
	}
	field := func(res *Result, step, name string) []byte {
		for _, m := range res.Transcript {
			if m.Label == step && m.Get(name) != nil {
				return m.Get(name)
			}
		}
		t.Fatalf("%s: no %s field", step, name)
		return nil
	}
	signedBy := func(signer *Party, msg, raw []byte) bool {
		curve := elliptic.P256()
		x, y := curve.ScalarBaseMult(signer.Priv.Bytes())
		digest := sha256.Sum256(msg)
		half := len(raw) / 2
		r, s := new(big.Int).SetBytes(raw[:half]), new(big.Int).SetBytes(raw[half:])
		return stdecdsa.Verify(&stdecdsa.PublicKey{Curve: curve, X: x, Y: y}, digest[:], r, s)
	}

	for i, opt := range []STSOptimization{OptNone, OptII} {
		p := NewSTS(opt)
		t.Run(p.Name(), func(t *testing.T) {
			a, b := newPair(t, int64(260+i))
			res, err := p.Run(a, b)
			if err != nil {
				t.Fatal(err)
			}
			xgA, xgB := field(res, "A1", "XG"), field(res, "B1", "XG")
			for _, r := range []struct {
				step, label string
				signer      *Party
				receiverKey []byte
				auth        []byte
			}{
				{"B1", "B->A", b, res.KeyA, concat(xgB, xgA)},
				{"A2", "A->B", a, res.KeyB, concat(xgA, xgB)},
			} {
				if raw := open(r.receiverKey, r.label, field(res, r.step, "Resp")); !signedBy(r.signer, r.auth, raw) {
					t.Errorf("%s Resp opened to %x, which crypto/ecdsa rejects", r.step, raw)
				}
			}
		})
	}

	t.Run("PORAMB", func(t *testing.T) {
		a, b := newPair(t, 262)
		res, err := NewPORAMB().Run(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			step, label, hello string
			receiverKey        []byte
		}{
			{"A3", "finish|A", "A2", res.KeyB},
			{"B3", "finish|B", "B2", res.KeyA},
		} {
			echo := open(f.receiverKey, f.label, field(res, f.step, "Finish")[64:])
			if want := concat(field(res, f.hello, "Cert"), field(res, f.hello, "Nonce")); !bytes.Equal(echo, want) {
				t.Errorf("%s echo opened to %x, want cert ‖ nonce %x", f.step, echo, want)
			}
		}
	})
}

func TestCachedCombinedDHEqualsStaticDH(t *testing.T) {
	// SCIANC's single-multiplication agreement must equal the plain
	// static DH: (d_A·e_B)·P_B + d_A·Q_CA = d_A·Q_B.
	net, err := NewNetwork(ec.P256(), newDetRand(4))
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := net.Pair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestSuite(5)
	curve := ec.P256()

	cached := curve.ScalarMult(a.CAPub, a.Priv)
	got, err := s.cachedCombinedDH(a.Priv, b.Cert, cached)
	if err != nil {
		t.Fatal(err)
	}

	// Plain path: extract Q_B then multiply.
	keyB, err := s.extractPublicKey(b.Cert, a.CAPub)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.dh(a.Priv, keyB.q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("combined DH disagrees with extract-then-multiply")
	}
}

func TestSuiteMeterCounts(t *testing.T) {
	// The trace must record exactly what ran.
	s, trace := newTestSuite(6)
	if _, _, err := s.ephemeral(); err != nil {
		t.Fatal(err)
	}
	s.mac(make([]byte, 32), []byte("abc"), []byte("de"))
	s.hash([]byte("12345678"))

	agg := trace.Aggregate()
	counts := agg.PhaseCounts(RoleA, PhaseOp1)
	if counts[PrimECBaseMult] != 1 {
		t.Errorf("base mults = %d", counts[PrimECBaseMult])
	}
	if counts[PrimRandScalar] != 1 {
		t.Errorf("rand scalars = %d", counts[PrimRandScalar])
	}
	if counts[PrimMACBytes] != 5 {
		t.Errorf("mac bytes = %d, want 5", counts[PrimMACBytes])
	}
	if counts[PrimHashBytes] != 8 {
		t.Errorf("hash bytes = %d, want 8", counts[PrimHashBytes])
	}
}

func TestPhaseBaseFolding(t *testing.T) {
	if PhaseOp2Premaster.Base() != PhaseOp2 || PhaseOp2PubKey.Base() != PhaseOp2 {
		t.Error("sub-phases do not fold to Op2")
	}
	for _, ph := range []Phase{PhaseOp1, PhaseOp2, PhaseOp3, PhaseOp4} {
		if ph.Base() != ph {
			t.Errorf("%s folds to %s", ph, ph.Base())
		}
	}
	if len(RawPhases()) != 6 {
		t.Errorf("raw phases = %d", len(RawPhases()))
	}
}

func TestPrimitiveStrings(t *testing.T) {
	for p := PrimECBaseMult; p <= PrimRandBytes; p++ {
		if s := p.String(); s == "" || s[0] == 'p' && len(s) > 9 && s[:9] == "primitive" {
			t.Errorf("primitive %d has no name", int(p))
		}
	}
	if Primitive(999).String() != "primitive(999)" {
		t.Error("unknown primitive string")
	}
}
