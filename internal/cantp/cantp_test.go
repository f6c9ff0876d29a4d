package cantp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func testMsg(n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	return msg
}

// reassemble pushes a frame sequence through a fresh Receiver at time
// 0, discarding the FlowControl it answers the FirstFrame with.
func reassemble(t *testing.T, frames [][]byte) ([]byte, error) {
	t.Helper()
	var rx Receiver
	for i, f := range frames {
		msg, _, err := rx.Push(f, 0)
		if err != nil {
			return nil, err
		}
		if msg != nil {
			if i != len(frames)-1 {
				t.Fatalf("message completed at frame %d of %d", i+1, len(frames))
			}
			return msg, nil
		}
	}
	return nil, errors.New("transfer incomplete")
}

func TestSegmentReassembleRoundTrip(t *testing.T) {
	sizes := []int{1, 7, 8, 61, 62, 63, 64, 100, 127, 200, 491, 1024, 4095}
	for _, n := range sizes {
		msg := testMsg(n)
		frames, err := segment(msg)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		got, err := reassemble(t, frames)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("size %d: round trip mismatch", n)
		}

		// Frame count matches the static accounting.
		want, fc, err := FrameCount(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) != want {
			t.Errorf("size %d: %d frames, accounting says %d", n, len(frames), want)
		}
		if fc != (n > maxSingle) {
			t.Errorf("size %d: flow control flag %v", n, fc)
		}
	}
}

func TestSegmentBoundaries(t *testing.T) {
	// ≤ 62 bytes: exactly one single frame.
	frames, err := segment(testMsg(maxSingle))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Errorf("%d-byte message used %d frames", maxSingle, len(frames))
	}
	// 63 bytes: FF + 1 CF.
	frames, err = segment(testMsg(maxSingle + 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Errorf("%d-byte message used %d frames, want 2", maxSingle+1, len(frames))
	}
	// Over the 12-bit limit.
	if _, err := segment(testMsg(MaxMessageLen + 1)); err == nil {
		t.Error("oversize message accepted")
	}
	// Empty message: legal SF with length 0? ISO-TP requires ≥ 1 byte;
	// segment emits it but Push rejects length 0 — assert the pair.
	frames, err = segment(nil)
	if err != nil {
		t.Fatal(err)
	}
	var rx Receiver
	if _, _, err := rx.Push(frames[0], 0); err == nil {
		t.Error("zero-length single frame accepted by the receiver")
	}
}

func TestSequenceNumberWrap(t *testing.T) {
	// > 15 consecutive frames force the 4-bit sequence number to wrap.
	n := (frameLen - 2) + 20*(frameLen-1) // FF + 20 CFs
	msg := testMsg(n)
	frames, err := segment(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 21 {
		t.Fatalf("expected 21 frames, got %d", len(frames))
	}
	// Sequence numbers 1..15, 0, 1, ...
	if frames[15][0]&0x0F != 15 {
		t.Error("frame 15 sequence wrong")
	}
	if frames[16][0]&0x0F != 0 {
		t.Error("sequence did not wrap to 0")
	}
	got, err := reassemble(t, frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrapped transfer corrupted")
	}
}

func TestReassemblerErrors(t *testing.T) {
	msg := testMsg(200)
	frames, _ := segment(msg)

	t.Run("bad sequence", func(t *testing.T) {
		var rx Receiver
		if _, _, err := rx.Push(frames[0], 0); err != nil {
			t.Fatal(err)
		}
		// Skip frames[1], push frames[2].
		if _, _, err := rx.Push(frames[2], 0); !errors.Is(err, ErrBadSequence) {
			t.Errorf("got %v, want ErrBadSequence", err)
		}
		if rx.Active() {
			t.Error("receiver still active after sequence error")
		}
	})

	t.Run("CF without FF", func(t *testing.T) {
		var rx Receiver
		if _, _, err := rx.Push(frames[1], 0); !errors.Is(err, ErrUnexpected) {
			t.Errorf("got %v, want ErrUnexpected", err)
		}
	})

	// A second FirstFrame is no error: it is the sender restarting
	// after an N_Bs expiry (TestReceiverRestartOnDuplicateFirstFrame
	// completes such a restart).
	t.Run("second FF mid-transfer", func(t *testing.T) {
		var rx Receiver
		rx.Push(frames[0], 0)
		_, fc, err := rx.Push(frames[0], 0)
		if err != nil || !bytes.Equal(fc, FlowControlFrame(FlowContinue, 0, 0)) {
			t.Errorf("got FC %x, %v; want a Continue", fc, err)
		}
		if !rx.Active() || rx.Stats().Restarts != 1 {
			t.Errorf("active %v, stats %+v; want a restarted transfer", rx.Active(), rx.Stats())
		}
	})

	t.Run("SF mid-transfer", func(t *testing.T) {
		var rx Receiver
		rx.Push(frames[0], 0)
		sf, _ := segment(testMsg(10))
		if _, _, err := rx.Push(sf[0], 0); !errors.Is(err, ErrUnexpected) {
			t.Errorf("got %v, want ErrUnexpected", err)
		}
	})

	t.Run("empty frame", func(t *testing.T) {
		var rx Receiver
		if _, _, err := rx.Push(nil, 0); !errors.Is(err, ErrBadPCI) {
			t.Errorf("got %v, want ErrBadPCI", err)
		}
	})

	t.Run("FF too short", func(t *testing.T) {
		var rx Receiver
		if _, _, err := rx.Push([]byte{pciFirst << 4}, 0); !errors.Is(err, ErrBadPCI) {
			t.Errorf("got %v, want ErrBadPCI", err)
		}
	})

	t.Run("FF length fits single frame", func(t *testing.T) {
		var rx Receiver
		// A FirstFrame declaring 10 bytes is bogus (must be > 62).
		ff := make([]byte, frameLen)
		ff[0] = pciFirst << 4
		ff[1] = 10
		if _, _, err := rx.Push(ff, 0); !errors.Is(err, ErrLengthInvalid) {
			t.Errorf("got %v, want ErrLengthInvalid", err)
		}
	})

	t.Run("flow control on data path", func(t *testing.T) {
		var rx Receiver
		if _, _, err := rx.Push(FlowControlFrame(FlowContinue, 0, 0), 0); !errors.Is(err, ErrUnexpected) {
			t.Errorf("got %v, want ErrUnexpected", err)
		}
	})
}

func TestClassicSingleFrame(t *testing.T) {
	// Classic (non-escape) SF: low nibble carries the length.
	var rx Receiver
	classic := []byte{0x03, 0xAA, 0xBB, 0xCC}
	msg, _, err := rx.Push(classic, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, []byte{0xAA, 0xBB, 0xCC}) {
		t.Errorf("classic SF decoded to %x", msg)
	}
	// Declared length beyond the frame.
	if _, _, err := rx.Push([]byte{0x05, 1, 2}, 0); !errors.Is(err, ErrLengthInvalid) {
		t.Errorf("got %v, want ErrLengthInvalid", err)
	}
}

func TestFlowControlRoundTrip(t *testing.T) {
	f := FlowControlFrame(FlowContinue, 4, 0x14)
	status, bs, st, err := ParseFlowControl(f)
	if err != nil {
		t.Fatal(err)
	}
	if status != FlowContinue || bs != 4 || st != 0x14 {
		t.Errorf("parsed %v %d %d", status, bs, st)
	}
	for _, s := range []FlowStatus{FlowWait, FlowOverflow} {
		got, _, _, err := ParseFlowControl(FlowControlFrame(s, 0, 0))
		if err != nil || got != s {
			t.Errorf("status %d: %v %v", s, got, err)
		}
	}
	if _, _, _, err := ParseFlowControl([]byte{0x30}); !errors.Is(err, ErrBadPCI) {
		t.Error("short FC accepted")
	}
	if _, _, _, err := ParseFlowControl([]byte{0x3F, 0, 0}); err == nil {
		t.Error("invalid flow status accepted")
	}
	if _, _, _, err := ParseFlowControl([]byte{0x10, 0, 0}); !errors.Is(err, ErrBadPCI) {
		t.Error("non-FC frame accepted")
	}
}

// TestFlowControlNeededFlag pins when the receiver asks for a
// FlowControl to go out: once per accepted FirstFrame, always
// Continue with block size 0 and STmin 0, and never for a
// ConsecutiveFrame or a SingleFrame.
func TestFlowControlNeededFlag(t *testing.T) {
	frames, _ := segment(testMsg(100))
	var rx Receiver
	_, fc, err := rx.Push(frames[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fc, FlowControlFrame(FlowContinue, 0, 0)) {
		t.Errorf("FF answered with %x, want Continue(0, 0)", fc)
	}
	if _, fc, _ := rx.Push(frames[1], 0); fc != nil {
		t.Errorf("CF answered with FC %x", fc)
	}
	sf, _ := segment(testMsg(10))
	if _, fc, _ := rx.Push(sf[0], 0); fc != nil {
		t.Error("flow control requested for single frame")
	}
}

func TestFrameCountTable2Messages(t *testing.T) {
	// The concrete message sizes of Table II must all be expressible.
	for _, n := range []int{48, 80, 101, 133, 165, 197, 213, 245} {
		frames, _, err := FrameCount(n)
		if err != nil || frames <= 0 {
			t.Errorf("size %d: %d frames, %v", n, frames, err)
		}
	}
}

// TestQuickRoundTrip property-tests segmentation across random sizes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint16) bool {
		n := int(seed)%MaxMessageLen + 1
		msg := testMsg(n)
		frames, err := segment(msg)
		if err != nil {
			return false
		}
		var rx Receiver
		var got []byte
		for _, fr := range frames {
			m, _, err := rx.Push(fr, 0)
			if err != nil {
				return false
			}
			if m != nil {
				got = m
			}
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
