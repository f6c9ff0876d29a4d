package session

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzPayload is the plaintext of the i-th honest A→B record of
// FuzzChannelOpen; the fourth spans two AES blocks.
func fuzzPayload(i int) []byte { return bytes.Repeat([]byte{'r', byte('0' + i)}, 4+3*i) }

// FuzzChannelOpen fuzzes the record layer's peer-input boundary: every
// byte Open reads comes from an untrusted peer. Each input builds a
// fixed pair under Policy{}, delivers three honest A→B records and
// seals a fourth, the genuine record. B is handed in its place either
// the genuine record with one bit flipped (bit mod its length in bits)
// or, when replace is set, data verbatim. The properties:
//
//   - no panic;
//   - every error is ErrMalformed, ErrAuth or ErrReplay, with no
//     plaintext;
//   - no plaintext comes back for bytes that differ from the genuine
//     record;
//   - the genuine record still opens afterwards, so a rejected record
//     never advances the receive state.
//
// The committed corpus (testdata/fuzz/FuzzChannelOpen) holds a short
// record, a flip in each of seq, dir, ciphertext and tag, a reflected
// record (B's own first record, sent back to it) and a replay of the
// first delivered record.
func FuzzChannelOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, replace bool, bit uint16, data []byte) {
		a, b := newPair(t, Policy{})
		for i := 0; i < 3; i++ {
			rec, err := a.Seal(fuzzPayload(i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Open(rec); err != nil {
				t.Fatal(err)
			}
		}
		genuine, err := a.Seal(fuzzPayload(3))
		if err != nil {
			t.Fatal(err)
		}

		sent := data
		if !replace {
			sent = append([]byte(nil), genuine...)
			n := int(bit) % (8 * len(sent))
			sent[n/8] ^= 1 << (n % 8)
		}
		pt, err := b.Open(sent)
		switch {
		case err != nil:
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrAuth) && !errors.Is(err, ErrReplay) {
				t.Fatalf("untyped record error: %v", err)
			}
			if pt != nil {
				t.Fatalf("rejected record returned %d bytes of plaintext", len(pt))
			}
		case !bytes.Equal(sent, genuine):
			t.Fatalf("forged record %x opened to %x", sent, pt)
		default:
			return // the genuine record itself was delivered
		}
		if pt, err := b.Open(genuine); err != nil || !bytes.Equal(pt, fuzzPayload(3)) {
			t.Fatalf("genuine record after a rejected one: %q, %v", pt, err)
		}
	})
}
