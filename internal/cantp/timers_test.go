package cantp

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// drive pushes every frame the sender will yield at time now into the
// receiver, answering FlowControls, until the message completes or an
// error surfaces. It models a perfect wire.
func drive(t *testing.T, s *Sender, rx *Receiver) []byte {
	t.Helper()
	now := time.Duration(0)
	for i := 0; i < 10000; i++ {
		if s.Done() && !rx.Active() {
			t.Fatal("sender done but no message completed")
		}
		f := s.Next(now)
		if f == nil {
			if at := s.ReadyAt(); at > now {
				now = at // honour STmin pacing
				continue
			}
			t.Fatalf("sender stalled at frame %d", i)
		}
		msg, fc, err := rx.Push(f, now)
		if err != nil {
			t.Fatal(err)
		}
		if fc != nil {
			if err := s.OnFlowControl(fc, now); err != nil {
				t.Fatal(err)
			}
		}
		if msg != nil {
			return msg
		}
	}
	t.Fatal("transfer did not converge")
	return nil
}

func TestSenderReceiverPerfectWire(t *testing.T) {
	for _, n := range []int{1, 62, 63, 200, 491, 1024} {
		msg := testMsg(n)
		s, err := NewSender(DefaultSenderConfig(), msg, 0)
		if err != nil {
			t.Fatal(err)
		}
		rx := NewReceiver(ReceiverConfig{})
		got := drive(t, s, rx)
		if !bytes.Equal(got, msg) {
			t.Fatalf("size %d corrupted", n)
		}
		if !s.Done() {
			t.Fatalf("size %d: sender not done", n)
		}
	}
}

func TestSenderBlockSizeAndSTmin(t *testing.T) {
	msg := testMsg(500) // FF + 7 CFs
	s, err := NewSender(DefaultSenderConfig(), msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx := NewReceiver(ReceiverConfig{BlockSize: 2, STmin: 0xF1}) // 2 CFs per FC, 100µs gap
	got := drive(t, s, rx)
	if !bytes.Equal(got, msg) {
		t.Fatal("block-size transfer corrupted")
	}
	if rx.Stats().Completed != 1 {
		t.Errorf("receiver stats %+v", rx.Stats())
	}
}

func TestSenderRetransmitsOnLostFlowControl(t *testing.T) {
	msg := testMsg(200)
	cfg := DefaultSenderConfig()
	s, err := NewSender(cfg, msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	ff := s.Next(0)
	if ff == nil || ff[0]>>4 != pciFirst {
		t.Fatal("first frame not emitted")
	}
	// The FC is lost. Nothing to send until the deadline.
	if s.Next(time.Millisecond) != nil {
		t.Error("sender transmitted without clearance")
	}
	dl := s.Deadline()
	if dl != cfg.Timeouts.NBs {
		t.Fatalf("deadline %v, want N_Bs %v", dl, cfg.Timeouts.NBs)
	}
	if err := s.OnTimeout(dl); err != nil {
		t.Fatal(err)
	}
	// The FirstFrame is retransmitted with a backed-off deadline.
	ff2 := s.Next(dl)
	if ff2 == nil || !bytes.Equal(ff, ff2) {
		t.Fatal("FirstFrame not retransmitted verbatim")
	}
	if s.Stats().Retransmits != 1 {
		t.Errorf("retransmits %d, want 1", s.Stats().Retransmits)
	}
	next := s.Deadline()
	if next-dl <= cfg.Timeouts.NBs {
		t.Errorf("no backoff: second wait %v not longer than first %v", next-dl, cfg.Timeouts.NBs)
	}
	// This time the FC arrives; the transfer completes.
	rx := NewReceiver(ReceiverConfig{})
	now := next - time.Millisecond
	if _, fc, err := rx.Push(ff2, now); err != nil || fc == nil {
		t.Fatalf("receiver did not clear retransmitted FF: %v", err)
	} else if err := s.OnFlowControl(fc, now); err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		f := s.Next(now)
		if f == nil {
			t.Fatal("sender stalled after clearance")
		}
		if msg2, _, err := rx.Push(f, now); err != nil {
			t.Fatal(err)
		} else if msg2 != nil && !bytes.Equal(msg2, msg) {
			t.Fatal("recovered transfer corrupted")
		}
	}
}

func TestSenderRetransmissionCapExhaustion(t *testing.T) {
	cfg := DefaultSenderConfig()
	cfg.MaxRetransmit = 2
	s, err := NewSender(cfg, testMsg(200), 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	if s.Next(now) == nil {
		t.Fatal("no FF")
	}
	for i := 0; i < 2; i++ {
		now = s.Deadline()
		if err := s.OnTimeout(now); err != nil {
			t.Fatalf("retry %d refused: %v", i, err)
		}
		if s.Next(now) == nil {
			t.Fatalf("retry %d: no FF", i)
		}
	}
	now = s.Deadline()
	if err := s.OnTimeout(now); !errors.Is(err, ErrSendTimeout) {
		t.Fatalf("got %v, want ErrSendTimeout after cap", err)
	}
	if s.Next(now) != nil {
		t.Error("aborted sender still transmitting")
	}
	if s.Stats().Retransmits != 2 {
		t.Errorf("retransmits %d, want 2", s.Stats().Retransmits)
	}
}

func TestFlowControlWaitHonouredThenCleared(t *testing.T) {
	msg := testMsg(200)
	s, err := NewSender(DefaultSenderConfig(), msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx := NewReceiver(ReceiverConfig{InitialWaits: 2})
	now := time.Duration(0)
	ff := s.Next(now)
	_, fc, err := rx.Push(ff, now)
	if err != nil {
		t.Fatal(err)
	}
	status, _, _, _ := ParseFlowControl(fc)
	if status != FlowWait {
		t.Fatalf("first FC %v, want Wait", status)
	}
	if err := s.OnFlowControl(fc, now); err != nil {
		t.Fatal(err)
	}
	// The receiver owes more FCs on its own schedule.
	for i := 0; i < 2; i++ {
		due := rx.Deadline()
		fc, err := rx.Expire(due)
		if err != nil {
			t.Fatal(err)
		}
		if fc == nil {
			t.Fatalf("FC %d not emitted at its due time", i+2)
		}
		now = due
		if err := s.OnFlowControl(fc, now); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().WaitsHonoured != 2 {
		t.Errorf("sender honoured %d waits, want 2", s.Stats().WaitsHonoured)
	}
	// Cleared: the rest of the transfer flows.
	for !s.Done() {
		f := s.Next(now)
		if f == nil {
			t.Fatal("sender stalled after Continue")
		}
		got, _, err := rx.Push(f, now)
		if err != nil {
			t.Fatal(err)
		}
		if got != nil && !bytes.Equal(got, msg) {
			t.Fatal("waited transfer corrupted")
		}
	}
}

func TestFlowControlWaitBudgetExhaustion(t *testing.T) {
	cfg := DefaultSenderConfig()
	cfg.MaxWait = 1
	s, err := NewSender(cfg, testMsg(200), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Next(0)
	wait := FlowControlFrame(FlowWait, 0, 0)
	if err := s.OnFlowControl(wait, 0); err != nil {
		t.Fatalf("first wait refused: %v", err)
	}
	if err := s.OnFlowControl(wait, 0); !errors.Is(err, ErrWaitBudget) {
		t.Fatalf("got %v, want ErrWaitBudget", err)
	}
}

func TestFlowControlOverflowAborts(t *testing.T) {
	// Receiver capacity below the announced length → FC(Overflow) →
	// sender aborts without retransmission.
	msg := testMsg(500)
	s, err := NewSender(DefaultSenderConfig(), msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rx := NewReceiver(ReceiverConfig{MaxMessage: 300})
	ff := s.Next(0)
	_, fc, err := rx.Push(ff, 0)
	if err != nil {
		t.Fatal(err)
	}
	status, _, _, _ := ParseFlowControl(fc)
	if status != FlowOverflow {
		t.Fatalf("FC %v, want Overflow", status)
	}
	if rx.Active() {
		t.Error("receiver buffered an overflowing transfer")
	}
	if rx.Stats().Overflows != 1 {
		t.Errorf("overflow count %+v", rx.Stats())
	}
	if err := s.OnFlowControl(fc, 0); !errors.Is(err, ErrFlowOverflow) {
		t.Fatalf("got %v, want ErrFlowOverflow", err)
	}
	if s.Next(0) != nil {
		t.Error("sender kept transmitting after Overflow")
	}
}

func TestReceiverDuplicateConsecutiveFrameIgnored(t *testing.T) {
	msg := testMsg(300)
	frames, _ := segment(msg)
	rx := NewReceiver(ReceiverConfig{})
	now := time.Duration(0)
	var got []byte
	for i, f := range frames {
		m, _, err := rx.Push(f, now)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m != nil {
			got = m
		}
		// Deliver every CF twice — the duplicate must be swallowed.
		if f[0]>>4 == pciConsec && m == nil {
			if _, _, err := rx.Push(f, now); err != nil {
				t.Fatalf("duplicate CF %d rejected with error: %v", i, err)
			}
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("duplicated transfer corrupted")
	}
	if rx.Stats().Duplicates == 0 {
		t.Error("no duplicates counted")
	}
}

func TestReceiverCorruptedFirstFrameLength(t *testing.T) {
	// A corrupted FF length field either claims a single-frame-sized
	// message (invalid) or a huge one (overflow); both must leave the
	// receiver idle and ready for the retransmission.
	rx := NewReceiver(ReceiverConfig{MaxMessage: 1024})

	small := make([]byte, frameLen)
	small[0] = pciFirst << 4
	small[1] = 10 // claims 10 bytes: must be > 62
	if _, _, err := rx.Push(small, 0); !errors.Is(err, ErrLengthInvalid) {
		t.Fatalf("got %v, want ErrLengthInvalid", err)
	}
	if rx.Active() {
		t.Error("receiver active after invalid FF")
	}

	huge := make([]byte, frameLen)
	huge[0] = pciFirst<<4 | 0x0F
	huge[1] = 0xFF // claims 4095 bytes > MaxMessage
	_, fc, err := rx.Push(huge, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st, _, _, _ := ParseFlowControl(fc); st != FlowOverflow {
		t.Fatalf("corrupted-huge FF answered with %v, want Overflow", st)
	}

	// The clean retransmission is then accepted normally.
	msg := testMsg(200)
	frames, _ := segment(msg)
	if _, fc, err := rx.Push(frames[0], 0); err != nil || fc == nil {
		t.Fatalf("clean FF refused after corrupted ones: %v", err)
	}
}

func TestReceiverNCrTimeoutAbandons(t *testing.T) {
	msg := testMsg(300)
	frames, _ := segment(msg)
	rx := NewReceiver(ReceiverConfig{})
	if _, _, err := rx.Push(frames[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rx.Push(frames[1], time.Millisecond); err != nil {
		t.Fatal(err)
	}
	dl := rx.Deadline()
	if dl <= time.Millisecond {
		t.Fatalf("implausible N_Cr deadline %v", dl)
	}
	if _, err := rx.Expire(dl - 1); err != nil {
		t.Fatal("expired early")
	}
	if _, err := rx.Expire(dl); !errors.Is(err, ErrReceiveTimeout) {
		t.Fatal("N_Cr lapse not reported")
	}
	if rx.Active() {
		t.Error("receiver still active after abandon")
	}
	if rx.Stats().Abandoned != 1 {
		t.Errorf("stats %+v", rx.Stats())
	}
	// A frame arriving after the lapse (without Expire being called)
	// also voids the stale transfer first.
	rx2 := NewReceiver(ReceiverConfig{})
	rx2.Push(frames[0], 0)
	rx2.Push(frames[1], time.Millisecond)
	if _, _, err := rx2.Push(frames[0], rx2.Deadline()+time.Second); err != nil {
		t.Fatalf("late FF not treated as fresh: %v", err)
	}
	if rx2.Stats().Abandoned != 1 || !rx2.Active() {
		t.Errorf("stale transfer not voided: %+v", rx2.Stats())
	}
}

func TestReceiverRestartOnDuplicateFirstFrame(t *testing.T) {
	msg := testMsg(300)
	frames, _ := segment(msg)
	rx := NewReceiver(ReceiverConfig{})
	rx.Push(frames[0], 0)
	rx.Push(frames[1], 0)
	// Sender timed out on a lost FC and restarts from the FF.
	if _, fc, err := rx.Push(frames[0], time.Millisecond); err != nil || fc == nil {
		t.Fatalf("restart FF not cleared: %v", err)
	}
	if rx.Stats().Restarts != 1 {
		t.Errorf("restarts %+v", rx.Stats())
	}
	// The full retransmission now completes.
	var got []byte
	for _, f := range frames[1:] {
		m, _, err := rx.Push(f, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			got = m
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("restarted transfer corrupted")
	}
}

// TestDecodeSTmin drives the sender's STmin decode over the full byte
// range, table-driven by the ISO 15765-2 value classes: 0x00–0x7F are
// milliseconds, 0xF1–0xF9 are 100–900 µs, and both reserved ranges
// (0x80–0xF0 and 0xFA–0xFF) must clamp to the 127 ms maximum — a
// reserved byte may only ever slow the sender down.
func TestDecodeSTmin(t *testing.T) {
	classes := []struct {
		name     string
		lo, hi   byte
		expected func(b byte) time.Duration
	}{
		{"milliseconds", 0x00, 0x7F, func(b byte) time.Duration { return time.Duration(b) * time.Millisecond }},
		{"reserved-low", 0x80, 0xF0, func(byte) time.Duration { return STminMax }},
		{"microseconds", 0xF1, 0xF9, func(b byte) time.Duration { return time.Duration(b-0xF0) * 100 * time.Microsecond }},
		{"reserved-high", 0xFA, 0xFF, func(byte) time.Duration { return STminMax }},
	}
	covered := 0
	for _, c := range classes {
		for v := int(c.lo); v <= int(c.hi); v++ {
			covered++
			b := byte(v)
			if got, want := DecodeSTmin(b), c.expected(b); got != want {
				t.Errorf("%s: DecodeSTmin(%#02x) = %v, want %v", c.name, b, got, want)
			}
			if got := DecodeSTmin(b); got > STminMax {
				t.Errorf("DecodeSTmin(%#02x) = %v exceeds the ISO maximum %v", b, got, STminMax)
			}
		}
	}
	if covered != 256 {
		t.Fatalf("value classes cover %d of 256 STmin bytes", covered)
	}
}

// TestSenderClampsReservedSTmin proves the clamp on the live decode
// path: a FlowControl carrying a reserved STmin byte paces the sender
// at the 127 ms maximum, not at a misread of the raw value.
func TestSenderClampsReservedSTmin(t *testing.T) {
	for _, stmin := range []byte{0x80, 0xC3, 0xF0, 0xFA, 0xFF} {
		msg := make([]byte, 200)
		s, err := NewSender(DefaultSenderConfig(), msg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f := s.Next(0); f == nil || f[0]>>4 != pciFirst {
			t.Fatal("sender did not open with a FirstFrame")
		}
		if err := s.OnFlowControl(FlowControlFrame(FlowContinue, 0, stmin), 0); err != nil {
			t.Fatalf("STmin %#02x: %v", stmin, err)
		}
		if f := s.Next(0); f == nil {
			t.Fatalf("STmin %#02x: first CF not released by the FC", stmin)
		}
		if at := s.ReadyAt(); at != STminMax {
			t.Errorf("STmin %#02x: next CF ready at %v, want the %v clamp", stmin, at, STminMax)
		}
		if f := s.Next(STminMax - time.Millisecond); f != nil {
			t.Errorf("STmin %#02x: sender paced faster than the clamp", stmin)
		}
		if f := s.Next(STminMax); f == nil {
			t.Errorf("STmin %#02x: sender stuck past the clamp", stmin)
		}
	}
}
