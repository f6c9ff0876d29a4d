package kdf

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func fromHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// TestHKDFRFC5869Case1 checks RFC 5869 Appendix A test case 1
// (SHA-256, basic).
func TestHKDFRFC5869Case1(t *testing.T) {
	ikm := fromHex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	salt := fromHex(t, "000102030405060708090a0b0c")
	info := fromHex(t, "f0f1f2f3f4f5f6f7f8f9")

	prk := Extract(salt, ikm)
	wantPRK := fromHex(t, "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5")
	if !bytes.Equal(prk, wantPRK) {
		t.Errorf("PRK = %x, want %x", prk, wantPRK)
	}

	okm, err := Expand(prk, info, 42)
	if err != nil {
		t.Fatal(err)
	}
	wantOKM := fromHex(t, "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865")
	if !bytes.Equal(okm, wantOKM) {
		t.Errorf("OKM = %x, want %x", okm, wantOKM)
	}
}

// TestHKDFRFC5869Case2 checks test case 2 (longer inputs/outputs).
func TestHKDFRFC5869Case2(t *testing.T) {
	ikm := fromHex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f")
	salt := fromHex(t, "606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeaf")
	info := fromHex(t, "b0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")

	okm, err := HKDF(ikm, salt, info, 82)
	if err != nil {
		t.Fatal(err)
	}
	want := fromHex(t, "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87")
	if !bytes.Equal(okm, want) {
		t.Errorf("OKM = %x, want %x", okm, want)
	}
}

// TestHKDFRFC5869Case3 checks test case 3 (zero-length salt and info).
func TestHKDFRFC5869Case3(t *testing.T) {
	ikm := fromHex(t, "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b")
	okm, err := HKDF(ikm, nil, nil, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := fromHex(t, "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8")
	if !bytes.Equal(okm, want) {
		t.Errorf("OKM = %x, want %x", okm, want)
	}
}

func TestExpandBounds(t *testing.T) {
	prk := Extract(nil, []byte("ikm"))
	if _, err := Expand(prk, nil, 0); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := Expand(prk, nil, -1); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := Expand(prk, nil, maxExpand+1); err == nil {
		t.Error("over-long output accepted")
	}
	okm, err := Expand(prk, nil, maxExpand)
	if err != nil || len(okm) != maxExpand {
		t.Errorf("max-length expand failed: %v", err)
	}
}

func TestSessionKeys(t *testing.T) {
	enc, mac, err := SessionKeys([]byte("premaster"), []byte("saltA|saltB"))
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != SessionKeySize {
		t.Errorf("enc key length %d, want %d", len(enc), SessionKeySize)
	}
	if len(mac) != MACKeySize {
		t.Errorf("mac key length %d, want %d", len(mac), MACKeySize)
	}
	if bytes.Equal(enc, mac[:SessionKeySize]) {
		t.Error("enc and mac keys overlap")
	}

	// Different salt (ephemeral points) must give different keys even
	// with the same premaster — the DKD property exercised in the
	// protocol tests.
	enc2, _, err := SessionKeys([]byte("premaster"), []byte("other salt"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(enc, enc2) {
		t.Error("different salts produced the same session key")
	}
}

// TestQuickHKDFDistinct property-tests that distinct IKMs yield
// distinct outputs (collision would indicate state-sharing bugs).
func TestQuickHKDFDistinct(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		o1, err1 := HKDF(a, []byte("s"), []byte("i"), 32)
		o2, err2 := HKDF(b, []byte("s"), []byte("i"), 32)
		return err1 == nil && err2 == nil && !bytes.Equal(o1, o2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}
