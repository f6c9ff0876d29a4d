package core

import (
	"testing"

	"repro/internal/ec"
)

// White-box tests for the S-ECDSA extended finished messages.

func TestFinishedRoundTrip(t *testing.T) {
	s, _ := newTestSuite(31)
	mac := make([]byte, 32)
	transcript := s.hash([]byte("transcript"))

	fin, err := buildFinished(s, mac, "B", transcript)
	if err != nil {
		t.Fatal(err)
	}
	if len(fin) != finSize {
		t.Fatalf("finished size %d, want %d", len(fin), finSize)
	}
	if err := checkFinished(s, mac, "B", transcript, fin); err != nil {
		t.Fatalf("valid finished rejected: %v", err)
	}
}

func TestFinishedRejections(t *testing.T) {
	s, _ := newTestSuite(32)
	mac := make([]byte, 32)
	transcript := s.hash([]byte("transcript"))
	fin, err := buildFinished(s, mac, "B", transcript)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong length.
	if err := checkFinished(s, mac, "B", transcript, fin[:50]); err == nil {
		t.Error("short finished accepted")
	}
	// Tampered nonce / MACs.
	for _, idx := range []int{0, 40, 80} {
		mod := append([]byte(nil), fin...)
		mod[idx] ^= 0x01
		if err := checkFinished(s, mac, "B", transcript, mod); err == nil {
			t.Errorf("tampered finished byte %d accepted", idx)
		}
	}
	// Wrong role (reflection).
	if err := checkFinished(s, mac, "A", transcript, fin); err == nil {
		t.Error("finished accepted under the wrong role")
	}
	// Wrong transcript.
	other := s.hash([]byte("other transcript"))
	if err := checkFinished(s, mac, "B", other, fin); err == nil {
		t.Error("finished accepted for a different transcript")
	}
	// Wrong key (different session).
	mac2 := make([]byte, 32)
	mac2[0] = 1
	if err := checkFinished(s, mac2, "B", transcript, fin); err == nil {
		t.Error("finished accepted under a different session key")
	}
}

func TestSECDSAExtRunsFinishedExchange(t *testing.T) {
	// The ext variant must verify the finished messages end-to-end —
	// corrupting the derived keys is impossible mid-run, so assert the
	// positive path plus the transcript shape here.
	a, b := newPair(t, 33)
	res, err := NewSECDSA(true).Run(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps() != 5 {
		t.Fatalf("ext variant has %d steps", res.Steps())
	}
	finB := res.Transcript[3].Get("Fin")
	finA := res.Transcript[4].Get("Fin")
	if len(finB) != finSize || len(finA) != finSize {
		t.Error("finished message sizes wrong")
	}
	// Finished messages must differ between roles (role separation).
	if string(finA) == string(finB) {
		t.Error("role finished messages identical")
	}
}

// TestDecodersNeverPanic hammers every decoder in the package with
// random bytes: errors are fine, panics are not.
func TestDecodersNeverPanic(t *testing.T) {
	rng := newDetRand(34)
	curve := ec.P256()
	buf := make([]byte, 512)
	for i := 0; i < 500; i++ {
		n := 1 + i%len(buf)
		rng.Read(buf[:n])
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panic on %d bytes: %v", n, r)
				}
			}()
			_, _ = DecodeSTSMessage(curve, OptNone, buf[:n])
			_, _ = DecodeSTSMessage(curve, OptII, buf[:n])
			_, _ = decodePointRaw(curve, buf[:n])
		}()
	}
}
