package ecqvsts

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/detrand"
	"repro/internal/session"
)

func newDetRand(seed int64) io.Reader { return detrand.NewReader(uint64(seed)) }

func enrollPair(t testing.TB, seed int64) (*Device, *Device) {
	t.Helper()
	authority, err := NewAuthority(WithRand(newDetRand(seed)))
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := authority.EnrollPair("alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestQuickstartFlow(t *testing.T) {
	a, b := enrollPair(t, 1)
	if a.ID() != "alice" || b.ID() != "bob" {
		t.Errorf("IDs: %s, %s", a.ID(), b.ID())
	}
	if len(a.Certificate()) != 101 {
		t.Errorf("certificate size %d, want 101", len(a.Certificate()))
	}

	session, err := Establish(STS, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !session.Dynamic {
		t.Error("STS session not marked dynamic")
	}
	if session.Steps != 4 || session.Bytes != 491 {
		t.Errorf("handshake cost %d steps / %d B", session.Steps, session.Bytes)
	}

	msg := []byte("battery cell voltages nominal")
	ct, err := session.Seal(msg, []byte("frame-7"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(msg)+session.Overhead() {
		t.Errorf("ciphertext size %d", len(ct))
	}
	pt, err := session.Open(ct, []byte("frame-7"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Error("round trip failed")
	}
	if _, err := session.Open(ct, []byte("frame-8")); err == nil {
		t.Error("wrong AAD accepted")
	}
}

func TestEveryProtocolEstablishes(t *testing.T) {
	a, b := enrollPair(t, 2)
	for _, kd := range KDs() {
		t.Run(kd.String(), func(t *testing.T) {
			s, err := Establish(kd, a, b)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := s.Seal([]byte("x"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Open(ct, nil); err != nil {
				t.Fatal(err)
			}
			if kd.Dynamic() != (kd == STS || kd == STSOptI || kd == STSOptII) {
				t.Errorf("Dynamic() = %v", kd.Dynamic())
			}
		})
	}
}

func TestSessionsAreIsolated(t *testing.T) {
	a, b := enrollPair(t, 3)
	s1, err := Establish(STS, a, b)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Establish(STS, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := s1.Seal([]byte("secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Open(ct, nil); err == nil {
		t.Error("session 2 decrypted session 1 traffic (keys not ephemeral)")
	}
}

func TestEstablishErrors(t *testing.T) {
	a, _ := enrollPair(t, 4)
	if _, err := Establish(STS, a, nil); err == nil {
		t.Error("nil device accepted")
	}
	if _, err := Establish(KD(99), a, a); err == nil {
		t.Error("unknown protocol accepted")
	}
	if KD(99).String() != "unknown" {
		t.Error("unknown KD name")
	}
}

func TestWithCurveOption(t *testing.T) {
	authority, err := NewAuthority(WithCurve("secp224r1"), WithRand(newDetRand(5)))
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := authority.EnrollPair("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Establish(STS, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// P-224 certificates are smaller than the 101-byte P-256 form.
	if len(a.Certificate()) >= 101 {
		t.Errorf("P-224 certificate size %d", len(a.Certificate()))
	}
	if s.Bytes >= 491 {
		t.Errorf("P-224 handshake bytes %d, want < 491", s.Bytes)
	}
	// An unknown name is an error, not a P-256 authority.
	if _, err := NewAuthority(WithCurve("P-521")); err == nil {
		t.Error("NewAuthority(WithCurve(\"P-521\")): no error")
	}
}

func TestChannels(t *testing.T) {
	a, b := enrollPair(t, 6)
	s, err := Establish(STS, a, b)
	if err != nil {
		t.Fatal(err)
	}
	init, resp, err := s.Channels(Policy{MaxRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := init.Seal([]byte("record 0"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resp.Open(rec)
	if err != nil || !bytes.Equal(got, []byte("record 0")) {
		t.Fatalf("record round trip: %v", err)
	}
	// Replay must fail.
	if _, err := resp.Open(rec); err == nil {
		t.Error("replay accepted")
	}
	// Policy exhaustion forces a rekey.
	if _, err := init.Seal([]byte("record 1")); err != nil {
		t.Fatal(err)
	}
	if _, err := init.Seal([]byte("record 2")); !errors.Is(err, ErrRekeyRequired) {
		t.Errorf("policy not enforced: %v", err)
	}
	// Rekey: a fresh Establish yields working channels again.
	s2, err := Establish(STS, a, b)
	if err != nil {
		t.Fatal(err)
	}
	init2, resp2, err := s2.Channels(session.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := init2.Seal([]byte("after rekey"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resp2.Open(rec2); err != nil {
		t.Fatal(err)
	}
	// Old records do not open on the new session's channels.
	if _, err := resp2.Open(rec); err == nil {
		t.Error("pre-rekey record accepted after rekey")
	}
}

func TestEstimateTime(t *testing.T) {
	sts, err := EstimateTime(STS, "STM32F767")
	if err != nil {
		t.Fatal(err)
	}
	secdsa, err := EstimateTime(SECDSA, "STM32F767")
	if err != nil {
		t.Fatal(err)
	}
	// Table I shape: STS ≈ 3.1 s, S-ECDSA ≈ 2.5 s.
	if sts < 2*time.Second || sts > 4*time.Second {
		t.Errorf("STS estimate %v", sts)
	}
	ratio := float64(sts) / float64(secdsa)
	if ratio < 1.15 || ratio > 1.35 {
		t.Errorf("STS/S-ECDSA ratio %.2f", ratio)
	}
	if _, err := EstimateTime(STS, "ESP32"); err == nil {
		t.Error("unknown device accepted")
	}

	devices := Devices()
	if len(devices) != 4 {
		t.Errorf("%d devices", len(devices))
	}
}

// BenchmarkSessionSealOpen prices one 64 B Session.Seal+Open, the
// public API's message protection under an established session.
func BenchmarkSessionSealOpen(b *testing.B) {
	a, peer := enrollPair(b, 11)
	s, err := Establish(STS, a, peer)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for b.Loop() {
		ct, err := s.Seal(payload, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Open(ct, nil); err != nil {
			b.Fatal(err)
		}
	}
}
