package ecdsa

import (
	stdecdsa "crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/detrand"
	"repro/internal/ec"
)

func newDetRand(seed int64) io.Reader { return detrand.NewReader(uint64(seed)) }

func TestSignVerifyRoundTrip(t *testing.T) {
	rng := newDetRand(1)
	for _, c := range ec.Curves() {
		t.Run(c.Name, func(t *testing.T) {
			key, err := GenerateKey(c, rng)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("sts ecqv dynamic session establishment")
			sig, err := key.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if !key.Public().Verify(msg, sig) {
				t.Fatal("signature did not verify")
			}
			if key.Public().Verify(append(msg, 'x'), sig) {
				t.Fatal("signature verified for modified message")
			}
		})
	}
}

func TestDeterministicSignatures(t *testing.T) {
	rng := newDetRand(2)
	c := ec.P256()
	key, err := GenerateKey(c, rng)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("same message")
	s1, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if s1.R.Cmp(s2.R) != 0 || s1.S.Cmp(s2.S) != 0 {
		t.Error("RFC 6979 signing must be deterministic")
	}
	s3, err := key.Sign([]byte("different message"))
	if err != nil {
		t.Fatal(err)
	}
	if s1.R.Cmp(s3.R) == 0 {
		t.Error("different messages produced the same nonce")
	}
}

// TestRFC6979Vector checks the published P-256/SHA-256 test vector
// (RFC 6979 §A.2.5, message "sample"). The implementation normalises
// to low-S, so s may equal n − s_vector.
func TestRFC6979Vector(t *testing.T) {
	c := ec.P256()
	d, _ := new(big.Int).SetString("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721", 16)
	key, err := NewPrivateKey(c, d)
	if err != nil {
		t.Fatal(err)
	}
	// Public key check from the RFC.
	wantUx, _ := new(big.Int).SetString("60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6", 16)
	wantUy, _ := new(big.Int).SetString("7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299", 16)
	if key.Q.X.Cmp(wantUx) != 0 || key.Q.Y.Cmp(wantUy) != 0 {
		t.Fatal("public key mismatch with RFC 6979 vector")
	}

	sig, err := key.Sign([]byte("sample"))
	if err != nil {
		t.Fatal(err)
	}
	wantR, _ := new(big.Int).SetString("efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716", 16)
	wantS, _ := new(big.Int).SetString("f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8", 16)
	if sig.R.Cmp(wantR) != 0 {
		t.Errorf("r = %x, want %x", sig.R, wantR)
	}
	sNeg := new(big.Int).Sub(c.N, wantS)
	if sig.S.Cmp(wantS) != 0 && sig.S.Cmp(sNeg) != 0 {
		t.Errorf("s = %x, want %x or its negation", sig.S, wantS)
	}
}

// TestRFC6979VectorP224 checks the P-224/SHA-256 vector (RFC 6979
// §A.2.4, message "sample").
func TestRFC6979VectorP224(t *testing.T) {
	c := ec.P224()
	d, _ := new(big.Int).SetString("f220266e1105bfe3083e03ec7a3a654651f45e37167e88600bf257c1", 16)
	key, err := NewPrivateKey(c, d)
	if err != nil {
		t.Fatal(err)
	}
	wantUx, _ := new(big.Int).SetString("00cf08da5ad719e42707fa431292dea11244d64fc51610d94b130d6c", 16)
	wantUy, _ := new(big.Int).SetString("eeab6f3debe455e3dbf85416f7030cbd94f34f2d6f232c69f3c1385a", 16)
	if key.Q.X.Cmp(wantUx) != 0 || key.Q.Y.Cmp(wantUy) != 0 {
		t.Fatal("P-224 public key mismatch with RFC 6979 vector")
	}
	sig, err := key.Sign([]byte("sample"))
	if err != nil {
		t.Fatal(err)
	}
	wantR, _ := new(big.Int).SetString("61aa3da010e8e8406c656bc477a7a7189895e7e840cdfe8ff42307ba", 16)
	wantS, _ := new(big.Int).SetString("bc814050dab5d23770879494f9e0a680dc1af7161991bde692b10101", 16)
	if sig.R.Cmp(wantR) != 0 {
		t.Errorf("r = %x, want %x", sig.R, wantR)
	}
	sNeg := new(big.Int).Sub(c.N, wantS)
	if sig.S.Cmp(wantS) != 0 && sig.S.Cmp(sNeg) != 0 {
		t.Errorf("s = %x, want %x or its negation", sig.S, wantS)
	}
}

// TestRFC6979Candidates pins the first three nonce candidates of the
// RFC 6979 generator for the P-256 and P-224 keys and the "sample"
// message of the RFC's §A.2 vectors. The first candidate is the
// published k; the second and third are the values the generator drew
// when it stepped K and V after every candidate, so drawing the step
// only before a further candidate leaves the stream unchanged.
func TestRFC6979Candidates(t *testing.T) {
	digest := sha256.Sum256([]byte("sample"))
	for _, tc := range []struct {
		c    *ec.Curve
		d    string
		want [3]string
	}{
		{ec.P256(), "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721", [3]string{
			"a6e3c57dd01abe90086538398355dd4c3b17aa873382b0f24d6129493d8aad60",
			"8e83dc490bc5fc4d5992bd63cd87f254adffcb930f8a8011702a88870f638fdb",
			"7b8dc9ad8ce159abca1b9915fc1470e91d5ad2443b3032557e78f47e180ab702",
		}},
		{ec.P224(), "f220266e1105bfe3083e03ec7a3a654651f45e37167e88600bf257c1", [3]string{
			"ad3029e0278f80643de33917ce6908c70a8ff50a411f06e41dedfcdc",
			"e651536d86136a3b2a48606e067796dd9b8586698a271d594aeb0255",
			"7ebcf20c8a0b55c03859e209c2f544ca7abb36545e4c8a43705c81a7",
		}},
	} {
		d, _ := new(big.Int).SetString(tc.d, 16)
		g := newRFC6979(tc.c, d, digest[:])
		for i, want := range tc.want {
			if got := fmt.Sprintf("%x", g.next()); got != want {
				t.Errorf("%s: candidate %d = %s, want %s", tc.c.Name, i, got, want)
			}
		}
	}
}

// TestCrossVerifyWithStdlib signs with this package and verifies with
// crypto/ecdsa, and vice versa.
func TestCrossVerifyWithStdlib(t *testing.T) {
	rng := newDetRand(3)
	c := ec.P256()
	key, err := GenerateKey(c, rng)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("cross verification message")
	digest := sha256.Sum256(msg)

	sig, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	stdPub := &stdecdsa.PublicKey{Curve: elliptic.P256(), X: key.Q.X, Y: key.Q.Y}
	if !stdecdsa.Verify(stdPub, digest[:], sig.R, sig.S) {
		t.Error("stdlib rejected our signature")
	}

	stdPriv := &stdecdsa.PrivateKey{PublicKey: *stdPub, D: key.D}
	r, s, err := stdecdsa.Sign(newDetRand(4), stdPriv, digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !key.Public().VerifyDigest(digest[:], Signature{R: r, S: s}) {
		t.Error("we rejected a stdlib signature")
	}
}

func TestVerifyRejectsInvalid(t *testing.T) {
	rng := newDetRand(5)
	c := ec.P256()
	key, _ := GenerateKey(c, rng)
	msg := []byte("message")
	sig, _ := key.Sign(msg)
	pub := key.Public()

	bad := []Signature{
		{R: nil, S: nil},
		{R: new(big.Int), S: sig.S},                           // r = 0
		{R: sig.R, S: new(big.Int)},                           // s = 0
		{R: new(big.Int).Set(c.N), S: sig.S},                  // r = n
		{R: sig.R, S: new(big.Int).Set(c.N)},                  // s = n
		{R: new(big.Int).Neg(sig.R), S: sig.S},                // r < 0
		{R: new(big.Int).Add(sig.R, big.NewInt(1)), S: sig.S}, // wrong r
		{R: sig.R, S: new(big.Int).Add(sig.S, big.NewInt(1))}, // wrong s
	}
	for i, b := range bad {
		if pub.Verify(msg, b) {
			t.Errorf("case %d: invalid signature accepted", i)
		}
	}

	// Wrong key.
	other, _ := GenerateKey(c, rng)
	if other.Public().Verify(msg, sig) {
		t.Error("signature verified under the wrong key")
	}
	// Infinity public key.
	infPub := &PublicKey{Curve: c, Q: ec.Infinity()}
	if infPub.Verify(msg, sig) {
		t.Error("signature verified under infinity key")
	}
}

func TestLowSNormalisation(t *testing.T) {
	rng := newDetRand(6)
	c := ec.P256()
	halfN := new(big.Int).Rsh(c.N, 1)
	key, _ := GenerateKey(c, rng)
	for i := 0; i < 16; i++ {
		msg := []byte{byte(i)}
		sig, err := key.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if sig.S.Cmp(halfN) > 0 {
			t.Fatal("high-S signature emitted")
		}
	}
}

func TestRawEncoding(t *testing.T) {
	rng := newDetRand(7)
	for _, c := range ec.Curves() {
		key, _ := GenerateKey(c, rng)
		sig, _ := key.Sign([]byte("encode me"))

		raw := sig.EncodeRaw(c)
		if len(raw) != RawSize(c) {
			t.Fatalf("%s: raw size %d, want %d", c.Name, len(raw), RawSize(c))
		}
		dec, err := DecodeRaw(c, raw)
		if err != nil {
			t.Fatal(err)
		}
		if dec.R.Cmp(sig.R) != 0 || dec.S.Cmp(sig.S) != 0 {
			t.Fatal("raw round trip failed")
		}
	}
	// P-256 raw signatures are exactly the 64 bytes of Table II.
	if RawSize(ec.P256()) != 64 {
		t.Errorf("P-256 raw signature size = %d, want 64", RawSize(ec.P256()))
	}

	c := ec.P256()
	if _, err := DecodeRaw(c, make([]byte, 10)); err == nil {
		t.Error("short raw signature accepted")
	}
	if _, err := DecodeRaw(c, make([]byte, RawSize(c))); err == nil {
		t.Error("all-zero raw signature accepted")
	}
}

func TestNewPrivateKeyValidation(t *testing.T) {
	c := ec.P256()
	if _, err := NewPrivateKey(c, nil); err == nil {
		t.Error("nil scalar accepted")
	}
	if _, err := NewPrivateKey(c, new(big.Int)); err == nil {
		t.Error("zero scalar accepted")
	}
	if _, err := NewPrivateKey(c, c.N); err == nil {
		t.Error("scalar = n accepted")
	}
	k, err := NewPrivateKey(c, big.NewInt(12345))
	if err != nil {
		t.Fatal(err)
	}
	if !k.Q.Equal(c.ScalarBaseMult(big.NewInt(12345))) {
		t.Error("derived public key wrong")
	}
}

// TestQuickSignVerify property-tests the full sign/verify loop across
// random messages.
func TestQuickSignVerify(t *testing.T) {
	rng := newDetRand(8)
	c := ec.P256()
	key, _ := GenerateKey(c, rng)
	f := func(msg []byte) bool {
		sig, err := key.Sign(msg)
		if err != nil {
			return false
		}
		return key.Public().Verify(msg, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

// verifyDigestAllocBudget is the heap-allocation ceiling of one
// VerifyDigest against a Precompute'd P-256 key — the KeyCache-served
// verification of every rekey against a static peer — enforced by CI
// next to the ScalarMult gate. The point arithmetic is allocation-free;
// what remains is big.Int boundary work (digest, w, u1, u2 and the
// coordinate conversion), the same for even and odd u2. Measured: 26
// on amd64, 28 on 386; the budget is the larger plus 10%.
const verifyDigestAllocBudget = 31

func TestVerifyDigestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget needs steady-state measurement")
	}
	if !ec.UsesFPBackend() {
		t.Skip("built with -tags ec_purebig: the math/big oracle allocates freely by design")
	}
	if raceEnabled {
		t.Skip("built with -race: sync.Pool drops math/big's scratch at random, so counts vary")
	}
	c := ec.P256()
	key, err := GenerateKey(c, newDetRand(43))
	if err != nil {
		t.Fatal(err)
	}
	pub := key.Public().Precompute()
	// u2 = r·s⁻¹ mod n picks the signed comb's even (n − u2, negated)
	// or odd branch; sign digests until both parities are covered.
	var sigs [2]Signature
	var digests [2][]byte
	for i, found := 0, 0; found < 2; i++ {
		digest := sha256.Sum256([]byte{byte(i)})
		sig, err := key.SignDigest(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		u2 := new(big.Int).ModInverse(sig.S, c.N)
		u2.Mul(u2, sig.R).Mod(u2, c.N)
		if p := u2.Bit(0); digests[p] == nil {
			sigs[p], digests[p] = sig, digest[:]
			found++
		}
	}
	for parity, name := range []string{"even u2", "odd u2"} {
		verify := func() {
			if !pub.VerifyDigest(digests[parity], sigs[parity]) {
				t.Fatal("valid signature rejected")
			}
		}
		verify() // warm the comb tables outside the measurement
		got := testing.AllocsPerRun(20, verify)
		t.Logf("VerifyDigest, %s: %.0f allocs/op (budget %d)", name, got, verifyDigestAllocBudget)
		if got > verifyDigestAllocBudget {
			t.Errorf("VerifyDigest, %s: %.0f allocs/op, budget %d", name, got, verifyDigestAllocBudget)
		}
	}
}

// verifyImplicitAllocBudget is the heap-allocation ceiling of one
// VerifyImplicit on P-256 — the first-sight verification of every STS
// handshake with a certificate the verifier has not seen before —
// enforced by CI next to the VerifyDigest gate. The point arithmetic,
// two per-call odd-multiple tables included, is allocation-free; what
// remains is big.Int boundary work (digest, w, u1, u2, u2·e and its
// reduction, and the affine conversion), the same for even and odd u2.
// Measured: 28 on amd64, 30 on 386; the budget is the larger plus 10%.
const verifyImplicitAllocBudget = 33

// implicitKey returns an implicit key Q_U = e·P_U + Q_CA on P-256 with
// its private key d_U = e·k + d_CA for P_U = k·G, as ECQV issuance
// produces.
func implicitKey(tb testing.TB, seed int64) (c *ec.Curve, pU ec.Point, e *big.Int, qCA ec.Point, key *PrivateKey) {
	tb.Helper()
	c = ec.P256()
	rng := newDetRand(seed)
	var k, dCA *big.Int
	for _, s := range []**big.Int{&k, &dCA, &e} {
		v, err := c.RandomScalar(rng)
		if err != nil {
			tb.Fatal(err)
		}
		*s = v
	}
	pU, qCA = c.ScalarBaseMult(k), c.ScalarBaseMult(dCA)
	d := new(big.Int).Mul(e, k)
	d.Add(d, dCA).Mod(d, c.N)
	key, err := NewPrivateKey(c, d)
	if err != nil {
		tb.Fatal(err)
	}
	return c, pU, e, qCA, key
}

func TestVerifyImplicitAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget needs steady-state measurement")
	}
	if !ec.UsesFPBackend() {
		t.Skip("built with -tags ec_purebig: the math/big oracle allocates freely by design")
	}
	if raceEnabled {
		t.Skip("built with -race: sync.Pool drops math/big's scratch at random, so counts vary")
	}
	c, pU, e, qCA, key := implicitKey(t, 44)
	var sigs [2]Signature
	var digests [2][]byte
	for i, found := 0, 0; found < 2; i++ {
		digest := sha256.Sum256([]byte{byte(i)})
		sig, err := key.SignDigest(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		u2 := new(big.Int).ModInverse(sig.S, c.N)
		u2.Mul(u2, sig.R).Mod(u2, c.N)
		if p := u2.Bit(0); digests[p] == nil {
			sigs[p], digests[p] = sig, digest[:]
			found++
		}
	}
	for parity, name := range []string{"even u2", "odd u2"} {
		verify := func() {
			if !VerifyImplicit(c, pU, e, qCA, digests[parity], sigs[parity]) {
				t.Fatal("valid signature rejected")
			}
		}
		verify() // warm the comb table outside the measurement
		got := testing.AllocsPerRun(20, verify)
		t.Logf("VerifyImplicit, %s: %.0f allocs/op (budget %d)", name, got, verifyImplicitAllocBudget)
		if got > verifyImplicitAllocBudget {
			t.Errorf("VerifyImplicit, %s: %.0f allocs/op, budget %d", name, got, verifyImplicitAllocBudget)
		}
	}
}

// BenchmarkVerifyImplicit prices a first-sight verification: one
// signature checked straight from a certificate's P_U, e and Q_CA on
// the two-point CombinedMultN chain, as every STS handshake with a
// peer certificate not seen before runs it.
func BenchmarkVerifyImplicit(b *testing.B) {
	c, pU, e, qCA, key := implicitKey(b, 45)
	digest := sha256.Sum256([]byte("first sight"))
	sig, err := key.SignDigest(digest[:])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !VerifyImplicit(c, pU, e, qCA, digest[:], sig) {
			b.Fatal("valid signature rejected")
		}
	}
}
