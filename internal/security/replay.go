package security

import (
	"bytes"
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
func (an *Analyzer) attackReplay(p core.Protocol, s1, s2 *core.Result, a, b *core.Party) (bool, string) {
	switch p.(type) {
	case *core.SECDSA:
		// Replayed Sign_B covers Nonce_B1 ‖ Nonce_A1; session 2's
		// verifier checks against Nonce_B1 ‖ Nonce_A2.
		challenge := append(append([]byte{}, findField(s1, "B1", "Nonce")...), findField(s2, "A1", "Nonce")...)
		ok, err := CredentialBindsChallenge(an.curve, b.Cert, a.CAPub, findField(s1, "B1", "Sign"), challenge)
		if err != nil {
			return false, err.Error()
		}
		if ok {
			return true, "stale signature accepted against a fresh nonce"
		}
		return false, "signature binds the initiator nonce; replay rejected"

	case *core.STS:
		// Replayed Resp_B is encrypted under session 1's key; the
		// session-2 initiator derives a fresh key from its new
		// ephemeral, so decryption garbles and verification fails.
		// Decrypt with the (attacker-known, for the simulation)
		// session-1 key and check against session 2's challenge.
		if len(s1.KeyA) != kdf.SessionKeySize+kdf.MACKeySize {
			return false, "no key material"
		}
		dsign, err := openRespLike(s1.KeyA, "B->A", findField(s1, "B1", "Resp"))
		if err != nil {
			return false, "resp decryption failed"
		}
		// Session 2 challenge: XG_B (replayed) ‖ XG_A2 (fresh).
		challenge := append(append([]byte{}, findField(s1, "B1", "XG")...), findField(s2, "A1", "XG")...)
		ok, err := CredentialBindsChallenge(an.curve, b.Cert, a.CAPub, dsign, challenge)
		if err != nil {
			return false, err.Error()
		}
		if ok {
			return true, "stale STS response accepted against a fresh ephemeral"
		}
		return false, "response binds both ephemerals (and the fresh session key); replay rejected"

	case *core.SCIANC:
		// Replayed AuthMAC_B covers the session-1 nonces; session 2's
		// expected MAC covers fresh ones. (The auth KEY is static —
		// the weakness lives elsewhere — but freshness holds.)
		replayed := findField(s1, "B2", "AuthMAC")
		expected := findField(s2, "B2", "AuthMAC")
		if bytes.Equal(replayed, expected) {
			return true, "stale MAC matches the fresh session's expectation"
		}
		return false, "MAC binds both session nonces; replay rejected"

	case *core.PORAMB:
		replayed := findField(s1, "B2", "MAC")
		expected := findField(s2, "B2", "MAC")
		if bytes.Equal(replayed, expected) {
			return true, "stale MAC matches the fresh session's expectation"
		}
		return false, "MAC binds the fresh hello; replay rejected"
	}
	return false, "no replay model for protocol"
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
