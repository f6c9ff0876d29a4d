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
		s, err := NewSender(msg, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := drive(t, s, &Receiver{})
		if !bytes.Equal(got, msg) {
			t.Fatalf("size %d corrupted", n)
		}
		if !s.Done() {
			t.Fatalf("size %d: sender not done", n)
		}
	}
}

// TestFrameCountMatchesSender checks FrameCount, which prices the
// Table II wire costs through transport.WireCost, against the live
// state machines: for every message length, a Sender driving a
// Receiver on a perfect wire transmits exactly FrameCount's data
// frames, and one FlowControl crosses exactly when FrameCount says so.
func TestFrameCountMatchesSender(t *testing.T) {
	for n := 1; n <= MaxMessageLen; n++ {
		wantFrames, wantFC, err := FrameCount(n)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		msg := testMsg(n)
		s, err := NewSender(msg, 0)
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		var rx Receiver
		var got []byte
		frames, fcs := 0, 0
		for got == nil {
			f := s.Next(0)
			if f == nil {
				t.Fatalf("size %d: sender stalled after %d frames", n, frames)
			}
			frames++
			m, fc, err := rx.Push(f, 0)
			if err != nil {
				t.Fatalf("size %d: frame %d: %v", n, frames, err)
			}
			if fc != nil {
				fcs++
				if err := s.OnFlowControl(fc, 0); err != nil {
					t.Fatalf("size %d: %v", n, err)
				}
			}
			got = m
		}
		if !s.Done() || !bytes.Equal(got, msg) {
			t.Fatalf("size %d: sender done %v, message intact %v", n, s.Done(), bytes.Equal(got, msg))
		}
		if frames != wantFrames || fcs > 1 || (fcs == 1) != wantFC {
			t.Fatalf("size %d: %d data frames and %d FlowControls, FrameCount says %d and %v", n, frames, fcs, wantFrames, wantFC)
		}
	}
}

// TestSenderBlockSizeAndSTmin drives the sender with hand-built
// FlowControls granting 2 ConsecutiveFrames per block at a 100 µs
// STmin, the pacing a peer on the wire may ask for even though
// Receiver itself always grants the whole remainder at once.
func TestSenderBlockSizeAndSTmin(t *testing.T) {
	msg := testMsg(500) // FF + 7 CFs
	s, err := NewSender(msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	const gap = 100 * time.Microsecond
	grant := FlowControlFrame(FlowContinue, 2, 0xF1)
	var rx Receiver
	var got []byte
	now, lastCF := time.Duration(0), time.Duration(-1)
	fcs, inBlock := 0, 0
	for got == nil {
		f := s.Next(now)
		if f == nil {
			if at := s.ReadyAt(); at > now {
				now = at // honour STmin pacing
				continue
			}
			if s.Deadline() == 0 {
				t.Fatal("sender stalled without awaiting a FlowControl")
			}
			if inBlock != 0 && inBlock != 2 {
				t.Fatalf("sender paused for a FlowControl after %d CFs of a 2-CF block", inBlock)
			}
			if err := s.OnFlowControl(grant, now); err != nil {
				t.Fatal(err)
			}
			fcs++
			inBlock = 0
			continue
		}
		if f[0]>>4 == pciConsec {
			if lastCF >= 0 && now-lastCF < gap {
				t.Fatalf("CF at %v, %v after the previous one; STmin is %v", now, now-lastCF, gap)
			}
			lastCF = now
			inBlock++
			if inBlock > 2 {
				t.Fatal("sender overran its 2-CF block")
			}
		}
		m, _, err := rx.Push(f, now)
		if err != nil {
			t.Fatal(err)
		}
		got = m
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("block-size transfer corrupted")
	}
	if fcs != 4 { // after the FF and after CFs 2, 4 and 6
		t.Errorf("%d FlowControls consumed, want 4", fcs)
	}
	if !s.Done() {
		t.Error("sender not done after the last CF")
	}
}

func TestSenderRetransmitsOnLostFlowControl(t *testing.T) {
	msg := testMsg(200)
	s, err := NewSender(msg, 0)
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
	if dl != nBs {
		t.Fatalf("deadline %v, want N_Bs %v", dl, nBs)
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
	if want := time.Duration(float64(nBs) * backoff); next-dl != want {
		t.Errorf("second wait %v, want N_Bs backed off to %v", next-dl, want)
	}
	// This time the FC arrives; the transfer completes.
	var rx Receiver
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
	s, err := NewSender(testMsg(200), 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	if s.Next(now) == nil {
		t.Fatal("no FF")
	}
	wait := nBs
	for i := 0; i < maxRetransmit; i++ {
		if got := s.Deadline() - now; got != wait {
			t.Fatalf("retry %d: waited %v for the FC, want %v", i, got, wait)
		}
		now = s.Deadline()
		if err := s.OnTimeout(now); err != nil {
			t.Fatalf("retry %d refused: %v", i, err)
		}
		if s.Next(now) == nil {
			t.Fatalf("retry %d: no FF", i)
		}
		wait = time.Duration(float64(wait) * backoff)
	}
	now = s.Deadline()
	if err := s.OnTimeout(now); !errors.Is(err, ErrSendTimeout) {
		t.Fatalf("got %v, want ErrSendTimeout after %d retransmissions", err, maxRetransmit)
	}
	if s.Next(now) != nil {
		t.Error("aborted sender still transmitting")
	}
	if s.Stats().Retransmits != 3 {
		t.Errorf("retransmits %d, want 3", s.Stats().Retransmits)
	}
}

// TestFlowControlWaitHonouredThenCleared drives the sender with
// hand-built FlowControls, as a busy peer or the inject adversary puts
// them on the wire: two Waits, each re-arming N_Bs, then the Continue
// that releases the rest of the message.
func TestFlowControlWaitHonouredThenCleared(t *testing.T) {
	msg := testMsg(200)
	s, err := NewSender(msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rx Receiver
	now := time.Duration(0)
	ff := s.Next(now)
	_, cont, err := rx.Push(ff, now)
	if err != nil || cont == nil {
		t.Fatalf("receiver did not answer the FF: %v", err)
	}
	wait := FlowControlFrame(FlowWait, 0, 0)
	for i := 0; i < 2; i++ {
		now += 100 * time.Millisecond
		if err := s.OnFlowControl(wait, now); err != nil {
			t.Fatalf("wait %d: %v", i+1, err)
		}
		if dl := s.Deadline(); dl != now+nBs {
			t.Errorf("wait %d re-armed N_Bs to %v, want %v", i+1, dl, now+nBs)
		}
		if s.Next(now) != nil {
			t.Fatalf("sender transmitted after wait %d", i+1)
		}
	}
	if s.Stats().WaitsHonoured != 2 {
		t.Errorf("sender honoured %d waits, want 2", s.Stats().WaitsHonoured)
	}
	if err := s.OnFlowControl(cont, now); err != nil {
		t.Fatal(err)
	}
	// Cleared: the rest of the transfer flows.
	var got []byte
	for !s.Done() {
		f := s.Next(now)
		if f == nil {
			t.Fatal("sender stalled after Continue")
		}
		m, _, err := rx.Push(f, now)
		if err != nil {
			t.Fatal(err)
		}
		got = m
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("waited transfer corrupted")
	}
}

func TestFlowControlWaitBudgetExhaustion(t *testing.T) {
	s, err := NewSender(testMsg(200), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Next(0)
	wait := FlowControlFrame(FlowWait, 0, 0)
	for i := 0; i < maxWait; i++ {
		if err := s.OnFlowControl(wait, 0); err != nil {
			t.Fatalf("wait %d of %d refused: %v", i+1, maxWait, err)
		}
	}
	if err := s.OnFlowControl(wait, 0); !errors.Is(err, ErrWaitBudget) {
		t.Fatalf("got %v, want ErrWaitBudget after %d waits", err, maxWait)
	}
	if s.Next(0) != nil {
		t.Error("sender kept transmitting past its wait budget")
	}
	if s.Stats().WaitsHonoured != 5 {
		t.Errorf("waits honoured %d, want 5 (4 tolerated, the 5th aborts)", s.Stats().WaitsHonoured)
	}
}

// TestFlowControlOverflowAborts: a hand-built FlowControl(Overflow),
// the refusal the inject adversary forges, aborts the sender without
// retransmission.
func TestFlowControlOverflowAborts(t *testing.T) {
	s, err := NewSender(testMsg(500), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ff := s.Next(0); ff == nil || ff[0]>>4 != pciFirst {
		t.Fatal("sender did not open with a FirstFrame")
	}
	if err := s.OnFlowControl(FlowControlFrame(FlowOverflow, 0, 0), 0); !errors.Is(err, ErrFlowOverflow) {
		t.Fatalf("got %v, want ErrFlowOverflow", err)
	}
	if s.Next(0) != nil {
		t.Error("sender kept transmitting after Overflow")
	}
	if s.Deadline() != 0 {
		t.Error("aborted sender still arms N_Bs")
	}
	if err := s.OnFlowControl(FlowControlFrame(FlowContinue, 0, 0), 0); !errors.Is(err, ErrSendAborted) {
		t.Errorf("a Continue after the Overflow: got %v, want ErrSendAborted", err)
	}
}

func TestReceiverDuplicateConsecutiveFrameIgnored(t *testing.T) {
	msg := testMsg(300)
	frames, _ := segment(msg)
	var rx Receiver
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

// TestReceiverCorruptedFirstFrameLength pins what a corrupted FF
// length field does on the fabric: one that claims a
// single-frame-sized message is refused and leaves the receiver idle;
// one that claims the 12-bit maximum of 4095 bytes is accepted (no
// receiver refuses a length the field can carry), and the clean
// retransmission restarts the transfer and completes it.
func TestReceiverCorruptedFirstFrameLength(t *testing.T) {
	var rx Receiver

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
	huge[1] = 0xFF // claims 4095 bytes
	_, fc, err := rx.Push(huge, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fc, FlowControlFrame(FlowContinue, 0, 0)) {
		t.Fatalf("corrupted-huge FF answered with %x, want Continue", fc)
	}
	if !rx.Active() {
		t.Fatal("corrupted-huge FF not accepted")
	}

	// The clean retransmission restarts the transfer and completes.
	msg := testMsg(200)
	frames, _ := segment(msg)
	if _, fc, err := rx.Push(frames[0], 0); err != nil || fc == nil {
		t.Fatalf("clean FF refused after corrupted ones: %v", err)
	}
	if rx.Stats().Restarts != 1 {
		t.Errorf("restarts %+v, want 1", rx.Stats())
	}
	var got []byte
	for _, f := range frames[1:] {
		m, _, err := rx.Push(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		got = m
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("restarted transfer corrupted")
	}
}

func TestReceiverNCrTimeoutAbandons(t *testing.T) {
	msg := testMsg(300)
	frames, _ := segment(msg)
	var rx Receiver
	if _, _, err := rx.Push(frames[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rx.Push(frames[1], time.Millisecond); err != nil {
		t.Fatal(err)
	}
	dl := rx.Deadline()
	if dl != time.Millisecond+nCr {
		t.Fatalf("N_Cr deadline %v, want %v", dl, time.Millisecond+nCr)
	}
	if err := rx.Expire(dl - 1); err != nil {
		t.Fatal("expired early")
	}
	if err := rx.Expire(dl); !errors.Is(err, ErrReceiveTimeout) {
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
	var rx2 Receiver
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
	var rx Receiver
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
		s, err := NewSender(msg, 0)
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
