// Package kdf implements the key-derivation function used by the
// session-establishment protocols: HKDF (RFC 5869) over HMAC-SHA-256.
//
// The paper derives session keys as KS = KDF(KPM, salt) (equation (4));
// HKDF extract-then-expand is the concrete instantiation used by the
// STS engine, with the premaster x-coordinate as input keying material
// and the concatenated ephemeral points as salt.
//
// HMAC is the module's one one-shot HMAC-SHA-256, for a key used once:
// HKDF's steps here, internal/ecdsa's RFC 6979 nonces, the protocols'
// MACs under pairwise and session keys in internal/core, and the
// attacker's forgeries in internal/security. A key that protects many
// messages is keyed once in internal/aead instead.
package kdf

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
)

// HMAC returns HMAC-SHA-256 under key over the concatenation of parts.
func HMAC(key []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, key)
	for _, p := range parts {
		m.Write(p)
	}
	return m.Sum(nil)
}

// Extract implements HKDF-Extract: PRK = HMAC(salt, IKM). A nil or
// empty salt is replaced by a zero-filled hash-length string per
// RFC 5869 §2.2.
func Extract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	return HMAC(salt, ikm)
}

// maxExpand is the RFC 5869 output bound: 255 · HashLen.
const maxExpand = 255 * sha256.Size

// Expand implements HKDF-Expand, producing length bytes of output
// keying material from a pseudorandom key and context info.
func Expand(prk, info []byte, length int) ([]byte, error) {
	if length <= 0 {
		return nil, errors.New("kdf: non-positive output length")
	}
	if length > maxExpand {
		return nil, errors.New("kdf: output length exceeds 255*HashLen")
	}
	var (
		out = make([]byte, 0, length)
		t   []byte
		ctr byte
	)
	for len(out) < length {
		ctr++
		t = HMAC(prk, t, info, []byte{ctr})
		out = append(out, t...)
	}
	return out[:length], nil
}

// HKDF runs extract-then-expand in one call.
func HKDF(ikm, salt, info []byte, length int) ([]byte, error) {
	return Expand(Extract(salt, ikm), info, length)
}

// SessionKeySize is the AES-128 session-key size used throughout the
// paper's evaluation (128-bit AES/CMAC level, §V-A).
const SessionKeySize = 16

// MACKeySize is the 256-bit HMAC key size of §V-A.
const MACKeySize = 32

// SessionKeys derives the encryption and MAC keys for one
// communication session from a premaster secret: the concrete
// KS = KDF(KPM, salt) of equation (4), split into an AES-128 key and a
// 256-bit MAC key.
func SessionKeys(premaster, salt []byte) (encKey, macKey []byte, err error) {
	okm, err := HKDF(premaster, salt, []byte("ecqv-sts session keys"), SessionKeySize+MACKeySize)
	if err != nil {
		return nil, nil, err
	}
	return okm[:SessionKeySize], okm[SessionKeySize:], nil
}
