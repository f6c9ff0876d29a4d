package security

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/aead"
	"repro/internal/core"
	"repro/internal/kdf"
)

// attackReplay models the classic freshness attack: the adversary
// recorded session 1 and replays the responder's authentication
// credential into session 2, hoping the initiator accepts stale
// material. For each protocol the simulation checks the replayed
// credential against exactly the value the session-2 verifier would
// require. All four protocols bind a fresh challenge (ephemeral point,
// nonce or hello) into the credential, so the replay must fail —
// this is the evidence behind the mutual-authentication row.
//
// A rejection only means something if the recording is sound, so the
// signature arms first check the recorded credential against session
// 1's own challenge and return an error when it does not verify there:
// a credential misread from the recording would be "rejected" by any
// session. Passing s1 as s2 is the positive control: every arm must
// then report the replay as accepted.
func (an *Analyzer) attackReplay(p core.Protocol, s1, s2 *core.Result, a, b *core.Party) (bool, string, error) {
	switch p.(type) {
	case *core.SECDSA:
		// Replayed Sign_B covers Nonce_B1 ‖ Nonce_A1; session 2's
		// verifier checks against Nonce_B1 ‖ Nonce_A2.
		sign := findField(s1, "B1", "Sign")
		if err := an.recordedCredentialSound(s1, "Nonce", sign, a, b); err != nil {
			return false, "", err
		}
		challenge := append(append([]byte{}, findField(s1, "B1", "Nonce")...), findField(s2, "A1", "Nonce")...)
		ok, err := CredentialBindsChallenge(an.curve, b.Cert, a.CAPub, sign, challenge)
		if err != nil {
			return false, "", fmt.Errorf("security: replay: %w", err)
		}
		if ok {
			return true, "stale signature accepted against a fresh nonce", nil
		}
		return false, "signature binds the initiator nonce; replay rejected", nil

	case *core.STS:
		// Replayed Resp_B is encrypted under session 1's key; the
		// session-2 initiator derives a fresh key from its new
		// ephemeral, so decryption garbles and verification fails.
		// Decrypt with the (attacker-known, for the simulation)
		// session-1 key and check against session 2's challenge.
		if len(s1.KeyA) != kdf.SessionKeySize+kdf.MACKeySize {
			return false, "", errors.New("security: replay: session 1 recorded no key material")
		}
		dsign, err := openRespLike(s1.KeyA, "B->A", findField(s1, "B1", "Resp"))
		if err != nil {
			return false, "", fmt.Errorf("security: replay: open Resp_B: %w", err)
		}
		if err := an.recordedCredentialSound(s1, "XG", dsign, a, b); err != nil {
			return false, "", err
		}
		// Session 2 challenge: XG_B (replayed) ‖ XG_A2 (fresh).
		challenge := append(append([]byte{}, findField(s1, "B1", "XG")...), findField(s2, "A1", "XG")...)
		ok, err := CredentialBindsChallenge(an.curve, b.Cert, a.CAPub, dsign, challenge)
		if err != nil {
			return false, "", fmt.Errorf("security: replay: %w", err)
		}
		if ok {
			return true, "stale STS response accepted against a fresh ephemeral", nil
		}
		return false, "response binds both ephemerals (and the fresh session key); replay rejected", nil

	case *core.SCIANC:
		// Replayed AuthMAC_B covers the session-1 nonces; session 2's
		// expected MAC covers fresh ones. (The auth KEY is static —
		// the weakness lives elsewhere — but freshness holds.)
		replayed := findField(s1, "B2", "AuthMAC")
		expected := findField(s2, "B2", "AuthMAC")
		if bytes.Equal(replayed, expected) {
			return true, "stale MAC matches the fresh session's expectation", nil
		}
		return false, "MAC binds both session nonces; replay rejected", nil

	case *core.PORAMB:
		replayed := findField(s1, "B2", "MAC")
		expected := findField(s2, "B2", "MAC")
		if bytes.Equal(replayed, expected) {
			return true, "stale MAC matches the fresh session's expectation", nil
		}
		return false, "MAC binds the fresh hello; replay rejected", nil
	}
	return false, "no replay model for protocol", nil
}

// recordedCredentialSound checks that the responder credential cred
// recovered from recording s1 verifies against session 1's own
// challenge, field_B1 ‖ field_A1.
func (an *Analyzer) recordedCredentialSound(s1 *core.Result, field string, cred []byte, a, b *core.Party) error {
	own := append(append([]byte{}, findField(s1, "B1", field)...), findField(s1, "A1", field)...)
	ok, err := CredentialBindsChallenge(an.curve, b.Cert, a.CAPub, cred, own)
	if err != nil {
		return fmt.Errorf("security: replay: recorded credential: %w", err)
	}
	if !ok {
		return fmt.Errorf("security: replay: recorded credential does not verify against session 1's own %s_B1 ‖ %s_A1", field, field)
	}
	return nil
}

// openRespLike mirrors the protocol engine's size-preserving response
// encryption under a key block enc ‖ mac (AES-CTR, IV = HMAC(mac,
// "resp-iv|"+direction)[:16]) — public construction, replayed here per
// Kerckhoffs.
func openRespLike(keyBlock []byte, direction string, resp []byte) ([]byte, error) {
	keys, err := aead.New(keyBlock[:kdf.SessionKeySize], keyBlock[kdf.SessionKeySize:])
	if err != nil {
		return nil, fmt.Errorf("security: %w", err)
	}
	iv := keys.MAC([]byte("resp-iv|" + direction))
	out := make([]byte, len(resp))
	keys.XORKeyStream(out, resp, iv[:aead.NonceSize])
	return out, nil
}
