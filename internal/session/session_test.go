package session

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func testKeyBlock() []byte {
	kb := make([]byte, 48)
	for i := range kb {
		kb[i] = byte(i + 1)
	}
	return kb
}

func newPair(t *testing.T, policy Policy) (*Channel, *Channel) {
	t.Helper()
	a, b, err := NewPair(testKeyBlock(), policy)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestEmptyRecord(t *testing.T) {
	// Zero-length payloads (keep-alives) must round-trip: an empty
	// record still carries its authenticated header.
	a, b := newPair(t, DefaultPolicy)
	rec, err := a.Seal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != Overhead {
		t.Fatalf("empty record size %d, want %d", len(rec), Overhead)
	}
	got, err := b.Open(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty record decoded to %d bytes", len(got))
	}
	// And it still consumes a sequence number (no replay).
	if _, err := b.Open(rec); !errors.Is(err, ErrReplay) {
		t.Error("empty record replayable")
	}
}

func TestRoundTrip(t *testing.T) {
	a, b := newPair(t, DefaultPolicy)
	for i := 0; i < 8; i++ {
		msg := []byte{byte(i), 0xAA, 0xBB}
		rec, err := a.Seal(msg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec) != len(msg)+Overhead {
			t.Fatalf("record size %d", len(rec))
		}
		got, err := b.Open(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("round trip failed")
		}
	}
	// And the reverse direction, interleaved.
	for i := 0; i < 4; i++ {
		rec, err := b.Seal([]byte("resp"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Open(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReplayRejected(t *testing.T) {
	a, b := newPair(t, DefaultPolicy)
	rec, err := a.Seal([]byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(rec); err != nil {
		t.Fatal(err)
	}
	// Exact replay.
	if _, err := b.Open(rec); !errors.Is(err, ErrReplay) {
		t.Errorf("replay accepted: %v", err)
	}
	// A later record after the replay attempt still works.
	rec2, _ := a.Seal([]byte("two"))
	if _, err := b.Open(rec2); err != nil {
		t.Fatal(err)
	}
	// Replaying the older record again still fails.
	if _, err := b.Open(rec); !errors.Is(err, ErrReplay) {
		t.Error("old record accepted after progress")
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	a, b := newPair(t, DefaultPolicy)
	r1, _ := a.Seal([]byte("1"))
	r2, _ := a.Seal([]byte("2"))
	if _, err := b.Open(r2); !errors.Is(err, ErrReplay) {
		t.Errorf("gap accepted: %v", err)
	}
	// In-order delivery still works after the rejected attempt.
	if _, err := b.Open(r1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(r2); err != nil {
		t.Fatal(err)
	}
}

func TestTamperingRejected(t *testing.T) {
	a, b := newPair(t, DefaultPolicy)
	rec, _ := a.Seal([]byte("sensitive"))
	for _, idx := range []int{0, 7, 8, recordHeader, len(rec) - 1} {
		mod := append([]byte(nil), rec...)
		mod[idx] ^= 0x01
		if _, err := b.Open(mod); err == nil {
			t.Errorf("tampering at byte %d accepted", idx)
		}
	}
	if _, err := b.Open(rec[:Overhead-1]); !errors.Is(err, ErrMalformed) {
		t.Error("short record accepted")
	}
	// A record sent in the wrong direction (reflection attack).
	if _, err := a.Open(rec); err == nil {
		t.Error("reflected record accepted by its own sender")
	}
}

func TestRekeyPolicyRecords(t *testing.T) {
	a, b := newPair(t, Policy{MaxRecords: 3})
	for i := 0; i < 3; i++ {
		rec, err := a.Seal([]byte("x"))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if _, err := b.Open(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !a.NeedsRekey() {
		t.Error("sender does not report rekey need")
	}
	if _, err := a.Seal([]byte("x")); !errors.Is(err, ErrRekeyRequired) {
		t.Errorf("policy not enforced on send: %v", err)
	}
	if _, err := b.Open([]byte("anything")); !errors.Is(err, ErrRekeyRequired) {
		t.Errorf("policy not enforced on receive: %v", err)
	}
}

func TestRekeyPolicyAge(t *testing.T) {
	a, _ := newPair(t, Policy{MaxAge: time.Hour})
	now := time.Unix(1700000000, 0)
	a.SetClock(func() time.Time { return now })
	if _, err := a.Seal([]byte("x")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Hour)
	if _, err := a.Seal([]byte("x")); !errors.Is(err, ErrRekeyRequired) {
		t.Errorf("aged key still usable: %v", err)
	}
}

func TestUnlimitedPolicy(t *testing.T) {
	a, b := newPair(t, Policy{})
	for i := 0; i < 100; i++ {
		rec, err := a.Seal([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Open(rec); err != nil {
			t.Fatal(err)
		}
	}
	if a.NeedsRekey() {
		t.Error("unlimited policy reported expiry")
	}
	if a.RecordsSent() != 100 {
		t.Errorf("RecordsSent = %d", a.RecordsSent())
	}
}

func TestNewPairValidation(t *testing.T) {
	if _, _, err := NewPair(make([]byte, 10), DefaultPolicy); err == nil {
		t.Error("short key block accepted")
	}
}

// TestLargeRecordRoundTrip covers records past 8,160 B, the output
// bound of one HKDF expansion, up to 64 KiB.
func TestLargeRecordRoundTrip(t *testing.T) {
	a, b := newPair(t, DefaultPolicy)
	for _, n := range []int{8161, 64 << 10} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i * 31)
		}
		rec, err := a.Seal(msg)
		if err != nil {
			t.Fatalf("%d B: %v", n, err)
		}
		if len(rec) != n+Overhead {
			t.Fatalf("%d B: record size %d", n, len(rec))
		}
		got, err := b.Open(rec)
		if err != nil {
			t.Fatalf("%d B: %v", n, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%d B: round trip failed", n)
		}
		if _, err := b.Open(rec); !errors.Is(err, ErrReplay) {
			t.Errorf("%d B: replay accepted: %v", n, err)
		}
	}
}

// referenceRecord builds the record a channel sending in dir must seal
// for (seq, plaintext), straight from the KD key block and the
// construction in the package comment, with the standard library
// only: the record key is HKDF-SHA-256 written out as its two HMACs
// (RFC 5869, empty salt, one output block).
func referenceRecord(t *testing.T, keyBlock []byte, dir Direction, seq uint64, plaintext []byte) []byte {
	t.Helper()
	mac := func(key []byte, parts ...[]byte) []byte {
		m := hmac.New(sha256.New, key)
		for _, p := range parts {
			m.Write(p)
		}
		return m.Sum(nil)
	}
	prk := mac(make([]byte, sha256.Size), keyBlock[:16])
	block, err := aes.NewCipher(mac(prk, []byte("session-record-stream"), []byte{1})[:16])
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 9, 9+len(plaintext)+16)
	binary.BigEndian.PutUint64(rec, seq)
	rec[8] = byte(dir)
	iv := make([]byte, aes.BlockSize)
	copy(iv, rec)
	ct := make([]byte, len(plaintext))
	cipher.NewCTR(block, iv).XORKeyStream(ct, plaintext)
	rec = append(rec, ct...)
	return append(rec, mac(keyBlock[16:], []byte("session-record"), rec)[:16]...)
}

// TestSealMatchesReference requires Seal to produce exactly the
// independently built reference record, in both directions, at seq 0
// and above 2³², for payloads around the AES block size.
func TestSealMatchesReference(t *testing.T) {
	kb := testKeyBlock()
	a, b := newPair(t, Policy{})
	for _, ch := range []*Channel{a, b} {
		for _, seq := range []uint64{0, 1<<32 + 5} {
			for _, n := range []int{0, 1, 15, 16, 17, 64, 512} {
				msg := make([]byte, n)
				for i := range msg {
					msg[i] = byte(i*7 + n)
				}
				ch.sendSeq = seq
				rec, err := ch.Seal(msg)
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceRecord(t, kb, ch.dir, seq, msg); !bytes.Equal(rec, want) {
					t.Errorf("dir %#x seq %d %d B:\n got %x\nwant %x", byte(ch.dir), seq, n, rec, want)
				}
			}
		}
	}
}

// TestRecordPinned pins one full record for the fixed test key block,
// so any change to the record format has to be made deliberately.
func TestRecordPinned(t *testing.T) {
	a, _ := newPair(t, Policy{})
	a.sendSeq = 0x0102030405060708
	rec, err := a.Seal([]byte("pinned record: 17"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "01020304050607080176904cdb541175c8a53d056c0c5d1df8a2b54d2d76aee027bee1e95e6252db9e76"
	if got := hex.EncodeToString(rec); got != want {
		t.Errorf("record changed:\n got %s\nwant %s", got, want)
	}
}

// TestTagStateAcrossRecords seals 1,000 records in each direction,
// interleaved, and holds every tag to HMAC-SHA-256 keyed from scratch
// by crypto/hmac over "session-record" ‖ header ‖ ct, so a keyed MAC
// state that one record changes shows in the next. Halfway through, a
// copy with a forged tag must fail with ErrAuth and the honest record
// must still open: a failed Open leaves no state behind.
func TestTagStateAcrossRecords(t *testing.T) {
	kb := testKeyBlock()
	a, b := newPair(t, Policy{})
	want := func(rec []byte) []byte {
		m := hmac.New(sha256.New, kb[16:])
		m.Write([]byte("session-record"))
		m.Write(rec[:len(rec)-tagSize])
		return m.Sum(nil)[:tagSize]
	}
	const records = 1000
	for i := 0; i < records; i++ {
		for _, ends := range [][2]*Channel{{a, b}, {b, a}} {
			from, to := ends[0], ends[1]
			msg := bytes.Repeat([]byte{byte(i), byte(from.dir)}, i%70)
			rec, err := from.Seal(msg)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec[len(rec)-tagSize:]; !bytes.Equal(got, want(rec)) {
				t.Fatalf("dir %#x record %d: tag %x, want %x", byte(from.dir), i, got, want(rec))
			}
			if i == records/2 {
				forged := append([]byte(nil), rec...)
				forged[len(forged)-1] ^= 0x80
				if _, err := to.Open(forged); !errors.Is(err, ErrAuth) {
					t.Fatalf("dir %#x record %d: forged tag: %v, want ErrAuth", byte(from.dir), i, err)
				}
			}
			if got, err := to.Open(rec); err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("dir %#x record %d: Open = %x, %v", byte(from.dir), i, got, err)
			}
		}
	}
}

// TestPairChannelsConcurrent runs each channel of a pair on its own
// goroutine: both seal at the same time, then each opens the other's
// records. The two channels share one AES block and the keyed MAC's
// inner and outer states, which must stay read-only; run it under go
// test -race -count=10. (A single Channel is not shared: its sequence
// state is not safe for concurrent use.)
func TestPairChannelsConcurrent(t *testing.T) {
	a, b := newPair(t, Policy{})
	chans := [2]*Channel{a, b}
	msg := func(i, j int) []byte { return bytes.Repeat([]byte{byte(i), byte(j)}, j) }
	const records = 64
	var sealed [2][][]byte
	both := func(f func(i int) error) {
		var wg sync.WaitGroup
		for i := range chans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := f(i); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	both(func(i int) error {
		for j := 0; j < records; j++ {
			rec, err := chans[i].Seal(msg(i, j))
			if err != nil {
				return err
			}
			sealed[i] = append(sealed[i], rec)
		}
		return nil
	})
	both(func(i int) error {
		for j, rec := range sealed[1-i] {
			got, err := chans[i].Open(rec)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, msg(1-i, j)) {
				return fmt.Errorf("channel %d: record %d corrupted", i, j)
			}
		}
		return nil
	})
}

// sealOpenAllocBudget is the heap-allocation ceiling of one 64 B
// Seal+Open, enforced by CI next to the EC budgets. It measures 8: the
// record and plaintext buffers, an IV and a CTR stream per side, and
// one digest per tag resumed from the pair's keyed MAC states. Keying
// the MAC again for every record (hmac.New per tag: 20 allocs) fails
// it, as does per-record key derivation (62 allocs).
const sealOpenAllocBudget = 10

func TestSealOpenAllocBudget(t *testing.T) {
	a, b := newPair(t, Policy{})
	payload := make([]byte, 64)
	got := testing.AllocsPerRun(100, func() {
		rec, err := a.Seal(payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Open(rec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("64 B Seal+Open: %.0f allocs (budget %d)", got, sealOpenAllocBudget)
	if got > sealOpenAllocBudget {
		t.Fatalf("64 B Seal+Open allocates %.0f, budget %d", got, sealOpenAllocBudget)
	}
}

func TestKeystreamUniqueness(t *testing.T) {
	// Identical plaintexts in consecutive records must produce
	// different ciphertexts (per-record keystream).
	a, _ := newPair(t, DefaultPolicy)
	r1, _ := a.Seal([]byte("same message"))
	r2, _ := a.Seal([]byte("same message"))
	if bytes.Equal(r1[recordHeader:len(r1)-tagSize], r2[recordHeader:len(r2)-tagSize]) {
		t.Error("keystream reused across records")
	}
	// And across directions for the same sequence number.
	x, y := newPair(t, DefaultPolicy)
	rx, _ := x.Seal([]byte("same message"))
	ry, _ := y.Seal([]byte("same message"))
	if bytes.Equal(rx[recordHeader:len(rx)-tagSize], ry[recordHeader:len(ry)-tagSize]) {
		t.Error("keystream reused across directions")
	}
}

func TestCrossSessionIsolation(t *testing.T) {
	// Records of one session must not open in another (fresh key
	// block, as produced by a new STS run).
	a1, _ := newPair(t, DefaultPolicy)
	other := testKeyBlock()
	other[0] ^= 0xFF  // different encryption key
	other[20] ^= 0xFF // different MAC key (bytes 16..47 are the MAC half)
	_, b2, err := NewPair(other, DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := a1.Seal([]byte("session 1 data"))
	if _, err := b2.Open(rec); !errors.Is(err, ErrAuth) {
		t.Errorf("cross-session record accepted: %v", err)
	}
}

// TestQuickRoundTrip property-tests the record layer over random
// payloads.
func TestQuickRoundTrip(t *testing.T) {
	a, b, err := NewPair(testKeyBlock(), Policy{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		rec, err := a.Seal(msg)
		if err != nil {
			return false
		}
		got, err := b.Open(rec)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}
