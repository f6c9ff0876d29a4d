package group

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/ecqv"
	"repro/internal/kdf"
)

// groupPayload is the plaintext of the leader's datagram at seq i in
// FuzzGroupOpen; the fourth spans two AES blocks.
func groupPayload(i uint64) []byte { return bytes.Repeat([]byte{'g', byte('0' + i)}, 4+3*int(i)) }

// fuzzGroup builds a leader and one member over a fixed pairwise key
// block, without a handshake, and installs the first epoch's key
// message. The leader draws from a fresh deterministic reader, so every
// call yields the same bytes.
func fuzzGroup(t *testing.T) (*Leader, *Member) {
	t.Helper()
	gw := &core.Party{ID: ecqv.NewID("gateway"), Rand: newDetRand(12)}
	ecu := &core.Party{ID: ecqv.NewID("bms")}
	pairwise := bytes.Repeat([]byte{0x5a, 0xc3}, (kdf.SessionKeySize+kdf.MACKeySize)/2)
	keys, err := pairwiseKeys(pairwise)
	if err != nil {
		t.Fatal(err)
	}
	l := &Leader{self: gw, rand: gw.Rand, members: map[ecqv.ID]*memberState{
		ecu.ID: {party: ecu, pairwise: pairwise, keys: keys},
	}}
	m, err := Join(ecu, gw.ID, pairwise)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := l.rekey()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Install(dist[ecu.ID]); err != nil {
		t.Fatal(err)
	}
	return l, m
}

// FuzzGroupOpen fuzzes the group layer's peer-input boundaries: every
// byte Keys.Open and Member.Install read comes from the bus. Each input
// builds the fixed group of fuzzGroup. Unless install is set, the
// member opens the leader's datagrams at seqs 1–3 and the genuine
// input is the one at seq 4; with install set, the leader rekeys and
// the genuine input is the second epoch's key message. The member is
// handed, in its place, either the genuine input with one bit flipped
// (bit mod its length in bits) or, when replace is set, data verbatim.
// The properties:
//
//   - no panic;
//   - every Open error wraps ErrGroupAuth or ErrGroupReplay, with no
//     plaintext;
//   - no plaintext comes back for bytes that differ from the genuine
//     datagram, and no key is installed from bytes that differ from
//     the genuine key message;
//   - the genuine input still opens or installs afterwards, so a
//     rejected one never changes the receive state.
//
// The committed corpus (testdata/fuzz/FuzzGroupOpen) holds, for
// datagrams, a short one, a flip in each of epoch, sender, seq,
// ciphertext and tag and a replay of the seq-1 datagram; for key
// messages, a short one, a flip in each of epoch, nonce, ciphertext and
// tag and a replay of the first epoch's message.
func FuzzGroupOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, install, replace bool, bit uint16, data []byte) {
		l, m := fuzzGroup(t)
		lk, err := l.Keys()
		if err != nil {
			t.Fatal(err)
		}
		mk, err := m.Keys()
		if err != nil {
			t.Fatal(err)
		}
		var genuine []byte
		if install {
			dist, err := l.rekey()
			if err != nil {
				t.Fatal(err)
			}
			genuine = dist[m.self.ID]
		} else {
			for seq := uint64(1); seq <= 3; seq++ {
				dg, err := lk.Seal(l.self.ID, seq, groupPayload(seq))
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := mk.Open(dg); err != nil {
					t.Fatal(err)
				}
			}
			if genuine, err = lk.Seal(l.self.ID, 4, groupPayload(4)); err != nil {
				t.Fatal(err)
			}
		}

		sent := data
		if !replace {
			sent = append([]byte(nil), genuine...)
			n := int(bit) % (8 * len(sent))
			sent[n/8] ^= 1 << (n % 8)
		}
		forged := !bytes.Equal(sent, genuine)
		if install {
			switch err := m.Install(sent); {
			case err != nil:
				if k, _ := m.Keys(); k != mk {
					t.Fatalf("rejected key message %x replaced the keys: %v", sent, err)
				}
			case forged:
				t.Fatalf("forged key message %x installed", sent)
			default:
				return
			}
			if err := m.Install(genuine); err != nil {
				t.Fatalf("genuine key message after a rejected one: %v", err)
			}
			lk, _ = l.Keys()
			mk, _ = m.Keys()
			dg, err := lk.Seal(l.self.ID, 1, groupPayload(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, pt, err := mk.Open(dg); err != nil || !bytes.Equal(pt, groupPayload(1)) {
				t.Fatalf("installed key opens %q, %v", pt, err)
			}
			return
		}

		sender, pt, err := mk.Open(sent)
		switch {
		case err != nil:
			if !errors.Is(err, ErrGroupAuth) && !errors.Is(err, ErrGroupReplay) {
				t.Fatalf("untyped datagram error: %v", err)
			}
			if pt != nil {
				t.Fatalf("rejected datagram returned %d bytes of plaintext", len(pt))
			}
		case forged:
			t.Fatalf("forged datagram %x opened to %x from %s", sent, pt, sender)
		default:
			return // the genuine datagram itself was delivered
		}
		if sender, pt, err := mk.Open(genuine); err != nil || sender != l.self.ID || !bytes.Equal(pt, groupPayload(4)) {
			t.Fatalf("genuine datagram after a rejected one: %s %q, %v", sender, pt, err)
		}
	})
}
