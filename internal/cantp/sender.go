package cantp

import (
	"errors"
	"fmt"
	"time"
)

// ISO 15765-2 error handling: on impaired, gateway-bridged segments a
// FlowControl can be lost and a ConsecutiveFrame can go missing or
// arrive twice. Sender (this file) and Receiver (receiver.go) are the
// timer-aware halves of the protocol, over the unexported segment in
// cantp.go: all deadlines run on the harness's simulated clock
// (expressed as time.Duration since epoch), never on the host clock,
// so timeout behaviour is exactly reproducible.

// The one ISO-TP profile every endpoint runs: the standard's timers
// (ISO 15765-2 §9.8) on the simulated clock, plus the bounded
// FirstFrame retransmission that the impaired fabric relies on.
const (
	// nBs bounds the sender's wait for a FlowControl after a
	// FirstFrame (or between blocks).
	nBs = time.Second
	// nCr bounds the receiver's wait for the next ConsecutiveFrame.
	nCr = time.Second
	// maxRetransmit caps FirstFrame retransmissions after an N_Bs
	// expiry. Strict ISO 15765-2 aborts on the first expiry; a bounded
	// retry budget with backoff rides out a lost FlowControl instead.
	maxRetransmit = 3
	// backoff multiplies the N_Bs wait after every retransmission.
	backoff = 1.5
	// maxWait caps consecutive FlowControl(Wait) frames tolerated
	// before aborting (ISO WFTmax).
	maxWait = 4
)

// Sender errors.
var (
	// ErrSendTimeout: N_Bs expired and the retransmission budget is
	// exhausted.
	ErrSendTimeout = errors.New("cantp: flow control timeout, retransmissions exhausted")
	// ErrFlowOverflow: the receiver answered FlowControl(Overflow);
	// the message cannot be delivered at any retry count.
	ErrFlowOverflow = errors.New("cantp: receiver signalled overflow")
	// ErrWaitBudget: the peer kept answering FlowControl(Wait) past
	// WFTmax (maxWait).
	ErrWaitBudget = errors.New("cantp: flow control wait budget exhausted")
	// ErrSendAborted: the transfer already failed terminally.
	ErrSendAborted = errors.New("cantp: transfer aborted")
)

// SenderStats counts the recovery activity of one transfer.
type SenderStats struct {
	Retransmits   int // FirstFrame retransmissions after N_Bs expiry
	WaitsHonoured int // FlowControl(Wait) frames honoured
}

type senderState int

const (
	sendActive  senderState = iota // frames ready to transmit
	sendAwaitFC                    // waiting for a FlowControl
	sendPaced                      // STmin gate before the next CF
	sendDone                       // all frames delivered to the wire
	sendAborted                    // terminal failure
)

// Sender drives one ISO-TP transmission with N_Bs supervision (1 s),
// up to 3 FirstFrame retransmissions with 1.5× backoff, and up to 4
// consecutive FlowControl(Wait)s. It honours every FlowControl form
// that reaches it from the wire, genuine or forged: Continue with any
// block size and STmin, Wait, and Overflow. It is a pure state
// machine: the caller owns the wire (Next returns payloads to
// transmit) and the clock (OnTimeout fires when the caller advances
// simulated time past Deadline).
type Sender struct {
	frames [][]byte
	multi  bool

	state     senderState
	next      int           // index of the next frame to transmit
	blockLeft int           // CFs before the next FC (-1 = rest of message)
	stmin     time.Duration // pacing gap granted by the last FC
	readyAt   time.Duration // earliest transmit time for the next CF
	deadline  time.Duration // N_Bs expiry when awaiting FC
	curNBs    time.Duration // current (backed-off) N_Bs
	waits     int           // consecutive Waits honoured
	stats     SenderStats
}

// NewSender segments msg and returns a sender ready to transmit at
// simulated time now.
func NewSender(msg []byte, now time.Duration) (*Sender, error) {
	frames, err := segment(msg)
	if err != nil {
		return nil, err
	}
	s := &Sender{
		frames:  frames,
		multi:   len(frames) > 1,
		curNBs:  nBs,
		readyAt: now,
	}
	return s, nil
}

// Done reports whether every frame has been handed to the wire.
func (s *Sender) Done() bool { return s.state == sendDone }

// Stats returns the transfer's recovery counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// Deadline returns the simulated time at which OnTimeout must be
// invoked, or 0 when no timer is armed.
func (s *Sender) Deadline() time.Duration {
	if s.state == sendAwaitFC {
		return s.deadline
	}
	return 0
}

// ReadyAt returns the earliest simulated time Next will yield a frame
// while STmin pacing is in force (0 when not paced).
func (s *Sender) ReadyAt() time.Duration {
	if s.state == sendPaced {
		return s.readyAt
	}
	return 0
}

// Next returns the next frame payload to put on the wire at simulated
// time now, or nil when the sender is waiting (for a FlowControl, for
// the STmin gate, or because it is done/aborted).
func (s *Sender) Next(now time.Duration) []byte {
	if s.state == sendPaced && now >= s.readyAt {
		s.state = sendActive
	}
	if s.state != sendActive || s.next >= len(s.frames) {
		return nil
	}
	f := s.frames[s.next]
	s.next++
	switch {
	case s.multi && s.next == 1:
		// FirstFrame sent: FC must arrive within N_Bs.
		s.state = sendAwaitFC
		s.deadline = now + s.curNBs
	case s.next == len(s.frames):
		s.state = sendDone
	default:
		if s.blockLeft > 0 {
			s.blockLeft--
			if s.blockLeft == 0 {
				// Block exhausted: next CF needs a fresh FC.
				s.state = sendAwaitFC
				s.deadline = now + s.curNBs
				return f
			}
		}
		if s.stmin > 0 {
			s.state = sendPaced
			s.readyAt = now + s.stmin
		}
	}
	return f
}

// OnFlowControl consumes a FlowControl payload received at simulated
// time now. Unexpected FlowControls (duplicates from an impaired bus)
// are ignored.
func (s *Sender) OnFlowControl(data []byte, now time.Duration) error {
	if s.state == sendAborted {
		return ErrSendAborted
	}
	status, bs, stmin, err := ParseFlowControl(data)
	if err != nil {
		return err
	}
	if s.state != sendAwaitFC {
		return nil // stale or duplicated FC: drop silently
	}
	switch status {
	case FlowContinue:
		s.waits = 0
		s.stmin = DecodeSTmin(stmin)
		if bs == 0 {
			s.blockLeft = -1 // rest of the message, no further FC
		} else {
			s.blockLeft = int(bs)
		}
		s.state = sendActive
		s.deadline = 0
		if s.stmin > 0 && s.next > 1 {
			s.state = sendPaced
			s.readyAt = now + s.stmin
		}
		return nil
	case FlowWait:
		s.waits++
		s.stats.WaitsHonoured++
		if s.waits > maxWait {
			s.state = sendAborted
			return ErrWaitBudget
		}
		s.deadline = now + s.curNBs // re-arm N_Bs
		return nil
	case FlowOverflow:
		s.state = sendAborted
		return ErrFlowOverflow
	}
	return fmt.Errorf("%w: flow status %d", ErrBadPCI, status)
}

// OnTimeout handles an N_Bs expiry at simulated time now: it either
// schedules a FirstFrame retransmission (restarting the transfer with
// a backed-off timeout) or aborts when the budget is spent. The caller
// invokes it when simulated time reaches Deadline without a
// FlowControl having arrived.
func (s *Sender) OnTimeout(now time.Duration) error {
	if s.state != sendAwaitFC || now < s.deadline {
		return nil
	}
	if s.stats.Retransmits >= maxRetransmit {
		s.state = sendAborted
		return ErrSendTimeout
	}
	s.stats.Retransmits++
	s.curNBs = time.Duration(float64(s.curNBs) * backoff)
	// Restart from the FirstFrame: the receiver abandons its partial
	// transfer on the duplicate FF (see Receiver) or has already timed
	// out via N_Cr.
	s.next = 0
	s.blockLeft = 0
	s.waits = 0
	s.state = sendActive
	s.deadline = 0
	return nil
}

// STminMax is the longest minimum-separation time a valid STmin byte
// can encode (0x7F = 127 ms). ISO 15765-2 §9.6.5.4 directs a sender
// that receives a reserved STmin value to pace at this maximum: a
// malformed or corrupted FlowControl must make the sender conservative
// (slowest legal pacing), never free-running into a receiver that
// asked for separation it cannot name.
const STminMax = 127 * time.Millisecond

// DecodeSTmin maps a raw STmin byte to a duration per ISO 15765-2:
// 0x00–0x7F are 0–127 milliseconds and 0xF1–0xF9 are 100–900 µs.
// Every other value (the reserved ranges 0x80–0xF0 and 0xFA–0xFF) is
// clamped to STminMax on this decode path — the sender's FlowControl
// handling — so a reserved byte can only slow the sender down.
func DecodeSTmin(b byte) time.Duration {
	switch {
	case b <= 0x7F:
		return time.Duration(b) * time.Millisecond
	case b >= 0xF1 && b <= 0xF9:
		return time.Duration(b-0xF0) * 100 * time.Microsecond
	default:
		return STminMax
	}
}
