package aead

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
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

func newKeys(t *testing.T, enc, mac []byte) *Keys {
	t.Helper()
	k, err := New(enc, mac)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// referenceSeal builds nonce ‖ ct ‖ tag from scratch with the standard
// library only: aes.NewCipher and cipher.NewCTR for the ciphertext,
// hmac.New over nonce ‖ ct ‖ aad ‖ len64(aad) for the tag.
func referenceSeal(t *testing.T, enc, mac, nonce, plaintext, aad []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(enc)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, len(plaintext))
	cipher.NewCTR(block, nonce).XORKeyStream(ct, plaintext)
	m := hmac.New(sha256.New, mac)
	m.Write(nonce)
	m.Write(ct)
	m.Write(aad)
	var aadLen [8]byte
	binary.BigEndian.PutUint64(aadLen[:], uint64(len(aad)))
	m.Write(aadLen[:])
	out := append(append([]byte(nil), nonce...), ct...)
	return append(out, m.Sum(nil)[:TagSize]...)
}

// TestSealMatchesReference requires Seal under a fixed nonce reader to
// produce exactly the reference construction, for plaintexts around the
// AES block size, with nil and non-nil aad, under a MAC key of the
// module's 32 bytes and one of a full SHA-256 block.
func TestSealMatchesReference(t *testing.T) {
	enc, mac := testKeys()
	longMAC := bytes.Repeat([]byte{0xa5}, sha256.BlockSize)
	for _, mac := range [][]byte{mac, longMAC} {
		k := newKeys(t, enc, mac)
		for _, aad := range [][]byte{nil, []byte("epoch ‖ leader ‖ member")} {
			for _, n := range []int{0, 1, 15, 16, 17, 64, 1000} {
				pt := make([]byte, n)
				for i := range pt {
					pt[i] = byte(i*7 + n)
				}
				nonce := make([]byte, NonceSize)
				if _, err := io.ReadFull(newDetRand(int64(n)), nonce); err != nil {
					t.Fatal(err)
				}
				sealed, err := k.Seal(newDetRand(int64(n)), pt, aad)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceSeal(t, enc, mac, nonce, pt, aad); !bytes.Equal(sealed, want) {
					t.Errorf("mac %d B, aad %q, %d B:\n got %x\nwant %x", len(mac), aad, n, sealed, want)
				}
			}
		}
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	enc, mac := testKeys()
	k := newKeys(t, enc, mac)
	rng := newDetRand(1)
	for _, size := range []int{0, 1, 15, 16, 17, 64, 1000} {
		pt := make([]byte, size)
		for i := range pt {
			pt[i] = byte(i * 7)
		}
		sealed, err := k.Seal(rng, pt, []byte("aad"))
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(sealed) != size+Overhead {
			t.Errorf("size %d: sealed length %d, want %d", size, len(sealed), size+Overhead)
		}
		got, err := k.Open(sealed, []byte("aad"))
		if err != nil {
			t.Fatalf("size %d: open: %v", size, err)
		}
		if !bytes.Equal(got, pt) {
			t.Errorf("size %d: round trip mismatch", size)
		}
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	enc, mac := testKeys()
	k := newKeys(t, enc, mac)
	pt := []byte("the group key payload")
	sealed, err := k.Seal(newDetRand(2), pt, []byte("context"))
	if err != nil {
		t.Fatal(err)
	}

	// Flip each region: nonce, ciphertext, tag.
	for _, idx := range []int{0, NonceSize, len(sealed) - 1} {
		tampered := append([]byte{}, sealed...)
		tampered[idx] ^= 0x01
		if _, err := k.Open(tampered, []byte("context")); err == nil {
			t.Errorf("tampering at byte %d accepted", idx)
		}
	}
	// Wrong AAD.
	if _, err := k.Open(sealed, []byte("other")); err == nil {
		t.Error("wrong AAD accepted")
	}
	// Wrong MAC key.
	if _, err := newKeys(t, enc, make([]byte, 32)).Open(sealed, []byte("context")); err == nil {
		t.Error("wrong MAC key accepted")
	}
	// Truncated.
	if _, err := k.Open(sealed[:Overhead-1], []byte("context")); err == nil {
		t.Error("truncated message accepted")
	}
	// Wrong decryption key must still authenticate (EtM property: the
	// tag covers ciphertext, not plaintext), but yield garbage.
	got, err := newKeys(t, make([]byte, 16), mac).Open(sealed, []byte("context"))
	if err != nil {
		t.Fatalf("EtM open with wrong enc key must pass auth: %v", err)
	}
	if bytes.Equal(got, pt) {
		t.Error("wrong enc key decrypted to original plaintext")
	}
}

func TestNonceUniqueness(t *testing.T) {
	enc, mac := testKeys()
	k := newKeys(t, enc, mac)
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		sealed, err := k.Seal(rand.Reader, []byte("m"), nil)
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
	enc, mac := testKeys()
	if _, err := New(make([]byte, 5), mac); err == nil {
		t.Error("bad enc key size accepted")
	}
	if _, err := New(enc, make([]byte, sha256.BlockSize+1)); err == nil {
		t.Error("MAC key longer than a SHA-256 block accepted")
	}
	k := newKeys(t, enc, mac)
	if _, err := k.Seal(bytes.NewReader(make([]byte, NonceSize-1)), []byte("x"), nil); err == nil {
		t.Error("Seal succeeded on a short nonce read")
	}
}

// TestQuickRoundTrip property-tests seal/open across random plaintexts
// and AADs.
func TestQuickRoundTrip(t *testing.T) {
	enc, mac := testKeys()
	k := newKeys(t, enc, mac)
	rng := newDetRand(4)
	f := func(pt, aad []byte) bool {
		sealed, err := k.Seal(rng, pt, aad)
		if err != nil {
			return false
		}
		got, err := k.Open(sealed, aad)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}
