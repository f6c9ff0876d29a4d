// Package aead is the module's one encrypt-then-MAC construction:
// AES-128-CTR encryption with an HMAC-SHA-256 tag, mirroring the
// tiny-aes + bear-ssl HMAC primitive stack of the paper (§V-A), keyed
// once per key pair.
//
// New expands the encryption key into its AES key schedule and hashes
// the MAC key's ipad and opad blocks once (RFC 2104 §4). The Keys it
// returns are read-only, so every message under those keys, on any
// goroutine, resumes from the same state instead of keying again. Each
// user picks only its IV and what its tag covers:
//
//   - internal/session's record layer: IV = record header, tag over
//     "session-record" ‖ header ‖ ct (XORKeyStream and MAC);
//   - ecqvsts.Session and internal/group's key-distribution messages:
//     Seal and Open below, nonce ‖ ct ‖ tag;
//   - internal/group's datagrams: IV from the epoch MAC of the
//     datagram header, tag over "group-record" ‖ header ‖ ct;
//   - internal/core's STS Resp and PORAMB finish echo, keyed once per
//     session where the session key is derived: XORKeyStream alone,
//     size-preserving, under IV = MAC("resp-iv|" ‖ label)[:16]; the
//     signature or echo inside carries integrity, and the metered
//     protocol (suite.ctrEncrypt) records the primitive.
//
// Together with internal/kdf, whose HMAC serves keys used once, this
// is the only package that keys AES or HMAC outside tests.
package aead

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
)

const (
	// NonceSize is the CTR nonce length prepended to ciphertexts.
	NonceSize = aes.BlockSize
	// TagSize is the truncated HMAC-SHA-256 tag length. 16 bytes
	// keeps the 128-bit security level of §V-A.
	TagSize = 16
	// Overhead is Seal's ciphertext expansion in bytes.
	Overhead = NonceSize + TagSize
)

// Keys is one encryption key and one MAC key, keyed once. It is
// read-only after New and safe for concurrent use.
type Keys struct {
	block cipher.Block // AES key schedule of the encryption key
	// inner and outer are the marshaled SHA-256 states after the
	// mac⊕ipad and mac⊕opad blocks: HMAC-SHA-256 keyed once.
	inner, outer []byte
}

// New keys the construction: enc is an AES key (16 bytes for the
// AES-128 of §V-A) and mac an HMAC-SHA-256 key of at most one SHA-256
// block (64 bytes). Neither slice is retained.
func New(enc, mac []byte) (*Keys, error) {
	block, err := aes.NewCipher(enc)
	if err != nil {
		return nil, fmt.Errorf("aead: %w", err)
	}
	if len(mac) > sha256.BlockSize {
		return nil, fmt.Errorf("aead: MAC key of %d bytes, at most %d", len(mac), sha256.BlockSize)
	}
	k := &Keys{block: block}
	if k.inner, err = padState(mac, 0x36); err == nil {
		k.outer, err = padState(mac, 0x5c)
	}
	if err != nil {
		return nil, fmt.Errorf("aead: MAC key: %w", err)
	}
	return k, nil
}

// padState returns the marshaled SHA-256 state after one block of the
// HMAC key XORed with pad (RFC 2104: 0x36 for ipad, 0x5c for opad). The
// key is at most a block long, so it is used as is, zero-padded.
func padState(key []byte, pad byte) ([]byte, error) {
	var block [sha256.BlockSize]byte
	for i := range block {
		block[i] = pad
	}
	for i, k := range key {
		block[i] ^= k
	}
	h := sha256.New()
	h.Write(block[:])
	return h.(encoding.BinaryMarshaler).MarshalBinary()
}

// XORKeyStream XORs src with the AES-CTR keystream that starts at the
// 16-byte counter block iv, into dst.
func (k *Keys) XORKeyStream(dst, src, iv []byte) {
	cipher.NewCTR(k.block, iv).XORKeyStream(dst, src)
}

// MAC returns HMAC-SHA-256 under the MAC key over the concatenation of
// parts. It resumes a fresh digest from the keyed inner state, then
// from the keyed outer state, and never writes to either.
func (k *Keys) MAC(parts ...[]byte) (sum [sha256.Size]byte) {
	h := sha256.New()
	restore(h, k.inner)
	for _, p := range parts {
		h.Write(p)
	}
	h.Sum(sum[:0])
	restore(h, k.outer)
	h.Write(sum[:])
	h.Sum(sum[:0])
	return sum
}

// restore sets h to a state that padState marshaled from the same
// digest type, which cannot fail.
func restore(h hash.Hash, state []byte) {
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("aead: restore MAC state: " + err.Error())
	}
}

// Seal encrypts and authenticates plaintext under a nonce read from
// rand, returning
//
//	nonce(16) ‖ AES-CTR(enc, IV = nonce, plaintext) ‖ tag(16)
//
// where tag is HMAC-SHA-256(mac, nonce ‖ ct ‖ aad ‖ len64(aad))
// truncated to 16 bytes.
func (k *Keys) Seal(rand io.Reader, plaintext, aad []byte) ([]byte, error) {
	out := make([]byte, NonceSize+len(plaintext)+TagSize)
	nonce := out[:NonceSize]
	if _, err := io.ReadFull(rand, nonce); err != nil {
		return nil, fmt.Errorf("aead: nonce: %w", err)
	}
	ct := out[NonceSize : NonceSize+len(plaintext)]
	k.XORKeyStream(ct, plaintext, nonce)
	tag := k.tag(nonce, ct, aad)
	copy(out[NonceSize+len(plaintext):], tag[:TagSize])
	return out, nil
}

// Open verifies and decrypts a Seal output.
func (k *Keys) Open(sealed, aad []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, errors.New("aead: sealed message too short")
	}
	nonce := sealed[:NonceSize]
	ct := sealed[NonceSize : len(sealed)-TagSize]
	tag := k.tag(nonce, ct, aad)
	if subtle.ConstantTimeCompare(tag[:TagSize], sealed[len(sealed)-TagSize:]) != 1 {
		return nil, errors.New("aead: message authentication failed")
	}
	pt := make([]byte, len(ct))
	k.XORKeyStream(pt, ct, nonce)
	return pt, nil
}

// tag computes Seal's MAC over nonce ‖ ciphertext ‖ aad ‖ len64(aad).
func (k *Keys) tag(nonce, ct, aad []byte) [sha256.Size]byte {
	var aadLen [8]byte
	binary.BigEndian.PutUint64(aadLen[:], uint64(len(aad)))
	return k.MAC(nonce, ct, aad, aadLen[:])
}
