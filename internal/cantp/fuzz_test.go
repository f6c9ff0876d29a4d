package cantp

import (
	"bytes"
	"testing"
	"time"
)

// FuzzReceiverPush feeds arbitrary frame sequences — malformed PCIs,
// truncated FirstFrames, out-of-order and duplicated
// ConsecutiveFrames, FlowControls on the data path — into a zero
// Receiver. The properties: never panic, never complete a message
// longer than MaxMessageLen, never grow the reassembly buffer beyond
// MaxMessageLen plus one frame of DLC padding, and never answer with
// any FlowControl but Continue at block size 0 and STmin 0.
//
// The input encodes a frame sequence: each frame is a length byte
// (mod 65) followed by that many payload bytes; a high length bit
// also advances the simulated clock, exercising the N_Cr expiry path
// mid-sequence.
func FuzzReceiverPush(f *testing.F) {
	// A clean two-frame transfer.
	f.Add([]byte("\x0a\x10\x40AAAAAAAA\x0a\x21BBBBBBBBB"))
	// FirstFrame announcing the 12-bit maximum of 4095 bytes.
	f.Add([]byte("\x0a\x1f\xffAAAAAAAA"))
	// Escape-form SingleFrame, classic SingleFrame, empty frame.
	f.Add([]byte("\x06\x00\x04ABCD\x03\x02XY\x00"))
	// Consecutive frame without a FirstFrame, then a bad sequence.
	f.Add([]byte("\x04\x21ABC\x0a\x10\x40AAAAAAAA\x04\x2fZZZ"))
	// FlowControl on the data path and reserved PCI types.
	f.Add([]byte("\x04\x30\x02\x01\x03\x40AB\x03\xf0AB"))
	// Duplicated ConsecutiveFrame and a restarting FirstFrame.
	f.Add([]byte("\x0a\x10\x40AAAAAAAA\x05\x21BBBB\x05\x21BBBB\x0a\x10\x40CCCCCCCC"))
	// Clock-advancing frames (high bit set on the length byte).
	f.Add([]byte("\x8a\x10\x40AAAAAAAA\xc5\x21BBBB"))

	cont := FlowControlFrame(FlowContinue, 0, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		var rx Receiver
		var now time.Duration
		for len(data) > 0 {
			spec := data[0]
			data = data[1:]
			n := int(spec % 65)
			if n > len(data) {
				n = len(data)
			}
			frame := data[:n]
			data = data[n:]
			if spec&0x80 != 0 {
				// Jump the clock (two jumps outlast N_Cr), then service
				// the timer the way the transport layer does.
				now += 600 * time.Millisecond
				_ = rx.Expire(now)
			}
			msg, fc, err := rx.Push(frame, now)
			_ = err // protocol errors are the point; they must just not panic
			if len(msg) > MaxMessageLen {
				t.Fatalf("reassembled %d bytes, past the %d-byte protocol maximum", len(msg), MaxMessageLen)
			}
			if got := len(rx.buf); got > MaxMessageLen+frameLen {
				t.Fatalf("reassembly buffer grew to %d bytes (maximum %d + frame %d)", got, MaxMessageLen, frameLen)
			}
			if fc != nil && !bytes.Equal(fc, cont) {
				t.Fatalf("receiver answered with FlowControl %x, want %x", fc, cont)
			}
			now += 100 * time.Microsecond
		}
	})
}

// FuzzFlowControlParse: arbitrary bytes through the FlowControl
// parser and the sender's FC handler must never panic, and a parsed
// FC must re-encode to its own parse.
func FuzzFlowControlParse(f *testing.F) {
	f.Add([]byte{0x30, 0x00, 0x00})
	f.Add([]byte{0x31, 0x08, 0x7f})
	f.Add([]byte{0x32, 0x00, 0xf5})
	f.Add([]byte{0x3f, 0xff, 0xff})
	f.Add([]byte{0x30})
	f.Fuzz(func(t *testing.T, data []byte) {
		status, bs, stmin, err := ParseFlowControl(data)
		if err == nil {
			re := FlowControlFrame(status, bs, stmin)
			s2, b2, st2, err2 := ParseFlowControl(re)
			if err2 != nil || s2 != status || b2 != bs || st2 != stmin {
				t.Fatalf("FC re-encode diverged: %v %v %v %v", s2, b2, st2, err2)
			}
		}
		// The decoded STmin must always be a sane pacing gap.
		if d := DecodeSTmin(stmin); d < 0 || d > 127*time.Millisecond {
			t.Fatalf("STmin %#x decoded to %v", stmin, d)
		}
		// A live sender must survive the same bytes mid-transfer.
		s, errNew := NewSender(make([]byte, 300), 0)
		if errNew != nil {
			t.Fatal(errNew)
		}
		s.Next(0) // FirstFrame out, sender awaiting FC
		_ = s.OnFlowControl(data, 0)
	})
}
