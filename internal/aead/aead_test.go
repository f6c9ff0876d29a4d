package aead

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/detrand"
)

func newDetRand(seed int64) io.Reader { return detrand.NewReader(uint64(seed)) }

func testKeys() (enc, mac []byte) {
	enc = make([]byte, 16)
	mac = make([]byte, 32)
	for i := range enc {
		enc[i] = byte(i)
	}
	for i := range mac {
		mac[i] = byte(0x80 + i)
	}
	return
}

func TestSealOpenRoundTrip(t *testing.T) {
	s := &CTRThenHMAC{Rand: newDetRand(1)}
	enc, mac := testKeys()
	for _, size := range []int{0, 1, 15, 16, 17, 64, 1000} {
		pt := make([]byte, size)
		for i := range pt {
			pt[i] = byte(i * 7)
		}
		sealed, err := s.Seal(enc, mac, pt, []byte("aad"))
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(sealed) != size+s.Overhead() {
			t.Errorf("size %d: sealed length %d, want %d", size, len(sealed), size+s.Overhead())
		}
		got, err := s.Open(enc, mac, sealed, []byte("aad"))
		if err != nil {
			t.Fatalf("size %d: open: %v", size, err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("size %d: round trip mismatch", size)
		}
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	s := &CTRThenHMAC{Rand: newDetRand(2)}
	enc, mac := testKeys()
	pt := []byte("the sts signature payload")
	sealed, err := s.Seal(enc, mac, pt, []byte("context"))
	if err != nil {
		t.Fatal(err)
	}

	// Flip each region: nonce, ciphertext, tag.
	for _, idx := range []int{0, NonceSize, len(sealed) - 1} {
		tampered := append([]byte{}, sealed...)
		tampered[idx] ^= 0x01
		if _, err := s.Open(enc, mac, tampered, []byte("context")); err == nil {
			t.Errorf("tampering at byte %d accepted", idx)
		}
	}
	// Wrong AAD.
	if _, err := s.Open(enc, mac, sealed, []byte("other")); err == nil {
		t.Error("wrong AAD accepted")
	}
	// Wrong MAC key.
	otherMac := make([]byte, 32)
	if _, err := s.Open(enc, otherMac, sealed, []byte("context")); err == nil {
		t.Error("wrong MAC key accepted")
	}
	// Truncated.
	if _, err := s.Open(enc, mac, sealed[:NonceSize+TagSize-1], []byte("context")); err == nil {
		t.Error("truncated message accepted")
	}
	// Wrong decryption key must still authenticate (EtM property: the
	// tag covers ciphertext, not plaintext), but yield garbage.
	otherEnc := make([]byte, 16)
	got, err := s.Open(otherEnc, mac, sealed, []byte("context"))
	if err != nil {
		t.Fatalf("EtM open with wrong enc key must pass auth: %v", err)
	}
	if bytes.Equal(got, pt) {
		t.Error("wrong enc key decrypted to original plaintext")
	}
}

func TestNonceUniqueness(t *testing.T) {
	s := &CTRThenHMAC{} // crypto/rand path
	enc, mac := testKeys()
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		sealed, err := s.Seal(enc, mac, []byte("m"), nil)
		if err != nil {
			t.Fatal(err)
		}
		n := string(sealed[:NonceSize])
		if seen[n] {
			t.Fatal("nonce repeated")
		}
		seen[n] = true
	}
}

func TestKeySizeErrors(t *testing.T) {
	s := &CTRThenHMAC{Rand: newDetRand(3)}
	_, mac := testKeys()
	if _, err := s.Seal(make([]byte, 5), mac, []byte("x"), nil); err == nil {
		t.Error("bad enc key size accepted in Seal")
	}
	enc, _ := testKeys()
	sealed, _ := s.Seal(enc, mac, []byte("x"), nil)
	// Open checks the tag before the cipher; corrupt key size should
	// still error out — tag passes, cipher construction fails.
	if _, err := s.Open(make([]byte, 5), mac, sealed, nil); err == nil {
		t.Error("bad enc key size accepted in Open")
	}
}

func TestSchemeMetadata(t *testing.T) {
	s := &CTRThenHMAC{}
	if s.Name() == "" {
		t.Error("empty scheme name")
	}
	if s.Overhead() != NonceSize+TagSize {
		t.Errorf("Overhead = %d", s.Overhead())
	}
	var _ Scheme = s // interface conformance
	if Default == nil {
		t.Error("Default scheme is nil")
	}
}

// TestQuickRoundTrip property-tests seal/open across random plaintexts
// and AADs.
func TestQuickRoundTrip(t *testing.T) {
	s := &CTRThenHMAC{Rand: newDetRand(4)}
	enc, mac := testKeys()
	f := func(pt, aad []byte) bool {
		sealed, err := s.Seal(enc, mac, pt, aad)
		if err != nil {
			return false
		}
		got, err := s.Open(enc, mac, sealed, aad)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}
