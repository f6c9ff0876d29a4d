package cantp

import (
	"errors"
	"fmt"
	"time"
)

// ReceiverStats counts reassembly outcomes.
type ReceiverStats struct {
	Completed  int // messages fully reassembled
	Abandoned  int // partial transfers dropped on N_Cr expiry
	Duplicates int // duplicated ConsecutiveFrames ignored
	Restarts   int // transfers restarted by a duplicate FirstFrame
}

// ErrReceiveTimeout is returned by Expire when N_Cr lapses mid
// transfer.
var ErrReceiveTimeout = errors.New("cantp: consecutive frame timeout, transfer abandoned")

// Receiver rebuilds one message at a time from a SingleFrame or a
// FirstFrame and its ConsecutiveFrames, with N_Cr supervision (1 s),
// duplicate ConsecutiveFrame rejection and restart-on-FirstFrame. It
// answers every accepted FirstFrame with FlowControl(Continue) at
// block size 0 and STmin 0, which clears the sender for the whole
// remainder. Like Sender it is a pure state machine on simulated time:
// the caller owns the wire and the clock. The zero Receiver is ready
// for use.
type Receiver struct {
	buf      []byte
	want     int           // length the FirstFrame announced
	nextSeq  byte          // sequence number of the next ConsecutiveFrame
	active   bool          // a multi-frame transfer is in progress
	haveCF   bool          // a ConsecutiveFrame of this transfer was accepted
	deadline time.Duration // N_Cr expiry while active
	stats    ReceiverStats
}

// Active reports whether a multi-frame transfer is in progress.
func (rx *Receiver) Active() bool { return rx.active }

// Stats returns the reassembly counters.
func (rx *Receiver) Stats() ReceiverStats { return rx.stats }

// Deadline returns the N_Cr expiry of the transfer in progress, or 0
// when no timer is armed.
func (rx *Receiver) Deadline() time.Duration {
	if !rx.active {
		return 0
	}
	return rx.deadline
}

// Expire services the N_Cr timer at simulated time now: when it has
// lapsed, the partial transfer is abandoned and ErrReceiveTimeout
// returned.
func (rx *Receiver) Expire(now time.Duration) error {
	if !rx.active || now < rx.deadline {
		return nil
	}
	rx.Reset()
	rx.stats.Abandoned++
	return ErrReceiveTimeout
}

// Reset discards any partial transfer. The counters are kept.
func (rx *Receiver) Reset() { *rx = Receiver{stats: rx.stats} }

// Push feeds one received data-path frame at simulated time now. It
// returns the completed message (nil while in progress) and, when
// non-nil, a FlowControl payload the caller must transmit to the
// sender. Frame-level protocol errors are returned after the state has
// been made consistent; the caller counts and drops them.
func (rx *Receiver) Push(data []byte, now time.Duration) (msg []byte, fc []byte, err error) {
	// A deadline that lapsed before this frame arrived voids the
	// partial transfer first — the frame is then judged fresh.
	if rx.active && now >= rx.deadline {
		rx.Reset()
		rx.stats.Abandoned++
	}
	if len(data) == 0 {
		return nil, nil, ErrBadPCI
	}
	switch data[0] >> 4 {
	case pciSingle:
		if rx.active {
			return nil, nil, fmt.Errorf("%w: single frame during multi-frame transfer", ErrUnexpected)
		}
		msg, err := singleFrame(data)
		if err != nil {
			return nil, nil, err
		}
		rx.stats.Completed++
		return msg, nil, nil

	case pciFirst:
		// A FirstFrame during an active transfer is the sender
		// restarting after an N_Bs expiry: abandon and re-accept.
		if rx.active {
			rx.Reset()
			rx.stats.Restarts++
		}
		if len(data) < 3 {
			return nil, nil, ErrBadPCI
		}
		total := int(data[0]&0x0F)<<8 | int(data[1])
		if total <= maxSingle {
			return nil, nil, ErrLengthInvalid
		}
		rx.buf = append([]byte(nil), data[2:]...)
		if len(rx.buf) > total {
			rx.buf = rx.buf[:total] // DLC padding past the message end
		}
		rx.want = total
		rx.nextSeq = 1
		rx.active = true
		rx.deadline = now + nCr
		return nil, FlowControlFrame(FlowContinue, 0, 0), nil

	case pciConsec:
		if !rx.active {
			return nil, nil, fmt.Errorf("%w: consecutive frame without first frame", ErrUnexpected)
		}
		seq := data[0] & 0x0F
		if rx.haveCF && seq == (rx.nextSeq-1)&0x0F {
			// Retransmitted duplicate of the last accepted CF (an
			// impaired bus delivering twice): ignore it, restarting
			// N_Cr from this sighting.
			rx.stats.Duplicates++
			rx.deadline = now + nCr
			return nil, nil, nil
		}
		if seq != rx.nextSeq {
			rx.Reset()
			return nil, nil, fmt.Errorf("%w: got %d", ErrBadSequence, seq)
		}
		rx.buf = append(rx.buf, data[1:]...)
		if len(rx.buf) >= rx.want {
			msg := rx.buf[:rx.want]
			rx.Reset()
			rx.stats.Completed++
			return msg, nil, nil
		}
		rx.nextSeq = (rx.nextSeq + 1) & 0x0F
		rx.haveCF = true
		rx.deadline = now + nCr
		return nil, nil, nil

	case pciFlow:
		// Flow control is handled by the sender path; receiving one
		// here is a protocol confusion.
		return nil, nil, fmt.Errorf("%w: flow control on data path", ErrUnexpected)
	}
	return nil, nil, fmt.Errorf("%w: PCI type %#x", ErrBadPCI, data[0]>>4)
}

// singleFrame decodes a SingleFrame payload into a fresh copy of its
// message.
func singleFrame(data []byte) ([]byte, error) {
	if data[0]&0x0F != 0 {
		// Classic form: low nibble is the length (≤ 7 bytes).
		n := int(data[0] & 0x0F)
		if n > 7 || len(data) < 1+n {
			return nil, ErrLengthInvalid
		}
		return append([]byte(nil), data[1:1+n]...), nil
	}
	// FD escape form: [0x00, len, data...].
	if len(data) < 2 {
		return nil, ErrBadPCI
	}
	n := int(data[1])
	if n == 0 || n > maxSingle || len(data) < 2+n {
		return nil, ErrLengthInvalid
	}
	return append([]byte(nil), data[2:2+n]...), nil
}
