package cantp

import (
	"errors"
	"time"
)

// ReceiverConfig parameterizes the receiving state machine.
type ReceiverConfig struct {
	Timeouts Timeouts
	// MaxMessage caps the message length this receiver will accept; a
	// FirstFrame announcing more is answered with FlowControl(Overflow)
	// and never buffered. 0 means the protocol maximum (MaxMessageLen).
	MaxMessage int
	// BlockSize is advertised in FlowControl(Continue): the sender may
	// transmit this many ConsecutiveFrames before the next FC. 0 means
	// the whole remainder without further flow control.
	BlockSize byte
	// STmin is the raw minimum-separation byte advertised in
	// FlowControl(Continue).
	STmin byte
	// InitialWaits makes the receiver answer each FirstFrame with this
	// many FlowControl(Wait) frames (spaced WaitInterval apart) before
	// the Continue — a deterministic stand-in for a busy ECU, used to
	// exercise the sender's Wait budget.
	InitialWaits int
	// WaitInterval is the simulated delay between the FCs of a Wait
	// chain. Defaults to 100 ms, comfortably inside the sender's 1 s
	// N_Bs so an honoured Wait never races the sender's timeout.
	WaitInterval time.Duration
}

// ReceiverStats counts reassembly outcomes.
type ReceiverStats struct {
	Completed  int // messages fully reassembled
	Abandoned  int // partial transfers dropped on N_Cr expiry
	Duplicates int // duplicated ConsecutiveFrames ignored
	Restarts   int // transfers restarted by a duplicate FirstFrame
	Overflows  int // FirstFrames refused with FlowControl(Overflow)
	Waits      int // FlowControl(Wait) frames emitted
}

// ErrReceiveTimeout is returned by Expire when N_Cr lapses mid
// transfer.
var ErrReceiveTimeout = errors.New("cantp: consecutive frame timeout, transfer abandoned")

// Receiver is the timer-aware reassembly side: a reassembler plus
// N_Cr supervision, BlockSize/STmin flow control, duplicate
// ConsecutiveFrame rejection, restart-on-FirstFrame and capacity
// refusal. Like Sender it is a pure state machine on simulated time:
// the caller owns the wire and the clock.
type Receiver struct {
	cfg ReceiverConfig

	r         reassembler
	deadline  time.Duration // N_Cr expiry; 0 when idle
	lastSeq   byte          // sequence number of the last accepted CF
	haveCF    bool          // lastSeq is valid
	cfInBlock int           // CFs accepted since the last FC
	waitsLeft int           // Wait frames still owed before the Continue
	fcPending bool          // a Wait chain is in progress
	fcDue     time.Duration // when the next FC of the chain is due
	stats     ReceiverStats
}

// NewReceiver returns a receiver with defaulted timeouts.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	cfg.Timeouts = cfg.Timeouts.withDefaults()
	if cfg.MaxMessage <= 0 || cfg.MaxMessage > MaxMessageLen {
		cfg.MaxMessage = MaxMessageLen
	}
	if cfg.WaitInterval <= 0 {
		cfg.WaitInterval = 100 * time.Millisecond
	}
	return &Receiver{cfg: cfg}
}

// Active reports whether a multi-frame transfer is in progress.
func (rx *Receiver) Active() bool { return rx.r.active }

// Stats returns the reassembly counters.
func (rx *Receiver) Stats() ReceiverStats { return rx.stats }

// Deadline returns the earliest pending timer: the N_Cr expiry of the
// in-progress transfer or the due time of an owed FlowControl. 0 means
// no timer is armed.
func (rx *Receiver) Deadline() time.Duration {
	if !rx.r.active {
		return 0
	}
	if rx.fcPending && (rx.fcDue < rx.deadline || rx.deadline == 0) {
		return rx.fcDue
	}
	return rx.deadline
}

// Expire services the receiver's timers at simulated time now. When a
// Wait chain's next FlowControl is due it returns the FC payload to
// transmit; when N_Cr has lapsed it abandons the partial transfer and
// returns ErrReceiveTimeout.
func (rx *Receiver) Expire(now time.Duration) ([]byte, error) {
	if !rx.r.active {
		return nil, nil
	}
	if rx.fcPending && now >= rx.fcDue {
		return rx.nextChainFC(now), nil
	}
	if rx.deadline > 0 && now >= rx.deadline {
		rx.reset()
		rx.stats.Abandoned++
		return nil, ErrReceiveTimeout
	}
	return nil, nil
}

// nextChainFC emits the next FC of a Wait chain: another Wait while
// the budget lasts, then the Continue that releases the sender.
func (rx *Receiver) nextChainFC(now time.Duration) []byte {
	rx.deadline = now + rx.cfg.Timeouts.NCr
	if rx.waitsLeft > 0 {
		rx.waitsLeft--
		rx.stats.Waits++
		rx.fcDue = now + rx.cfg.WaitInterval
		return FlowControlFrame(FlowWait, 0, 0)
	}
	rx.fcPending = false
	return FlowControlFrame(FlowContinue, rx.cfg.BlockSize, rx.cfg.STmin)
}

func (rx *Receiver) reset() {
	rx.r.reset()
	rx.deadline = 0
	rx.haveCF = false
	rx.cfInBlock = 0
	rx.waitsLeft = 0
	rx.fcPending = false
}

// Push feeds one received data-path frame at simulated time now. It
// returns the completed message (nil while in progress) and, when
// non-nil, a FlowControl payload the caller must transmit to the
// sender. Frame-level protocol errors are returned after the state has
// been made consistent; the caller counts and drops them.
func (rx *Receiver) Push(data []byte, now time.Duration) (msg []byte, fc []byte, err error) {
	// A deadline that lapsed before this frame arrived voids the
	// partial transfer first — the frame is then judged fresh.
	if rx.r.active && rx.deadline > 0 && now >= rx.deadline && !rx.fcPending {
		rx.reset()
		rx.stats.Abandoned++
	}
	if len(data) == 0 {
		return nil, nil, ErrBadPCI
	}

	switch data[0] >> 4 {
	case pciFirst:
		// Capacity refusal happens before any buffering.
		if len(data) >= 3 {
			total := int(data[0]&0x0F)<<8 | int(data[1])
			if total > rx.cfg.MaxMessage {
				rx.stats.Overflows++
				return nil, FlowControlFrame(FlowOverflow, 0, 0), nil
			}
		}
		// A FirstFrame during an active transfer is the sender
		// restarting after an N_Bs expiry: abandon and re-accept.
		if rx.r.active {
			rx.reset()
			rx.stats.Restarts++
		}

	case pciConsec:
		if rx.r.active && rx.haveCF && data[0]&0x0F == rx.lastSeq {
			// Retransmitted duplicate of the last accepted CF (an
			// impaired bus delivering twice): ignore it, restarting
			// N_Cr from this sighting.
			rx.stats.Duplicates++
			rx.deadline = now + rx.cfg.Timeouts.NCr
			return nil, nil, nil
		}
	}

	complete, err := rx.r.push(data)
	if err != nil {
		// The embedded reassembler already reset itself on sequence
		// errors; every other error leaves its state untouched.
		return nil, nil, err
	}

	if rx.r.flowControlNeeded() {
		// FirstFrame accepted: arm N_Cr, then either open a Wait
		// chain or clear the sender immediately.
		rx.deadline = now + rx.cfg.Timeouts.NCr
		rx.haveCF = false
		rx.cfInBlock = 0
		rx.waitsLeft = rx.cfg.InitialWaits
		rx.fcPending = rx.waitsLeft > 0
		return nil, rx.nextChainFC(now), nil
	}

	if complete != nil {
		rx.stats.Completed++
		rx.deadline = 0
		rx.haveCF = false
		rx.cfInBlock = 0
		return complete, nil, nil
	}

	if rx.r.active && data[0]>>4 == pciConsec {
		rx.lastSeq = data[0] & 0x0F
		rx.haveCF = true
		rx.deadline = now + rx.cfg.Timeouts.NCr
		if rx.cfg.BlockSize > 0 {
			rx.cfInBlock++
			if rx.cfInBlock >= int(rx.cfg.BlockSize) {
				rx.cfInBlock = 0
				return nil, FlowControlFrame(FlowContinue, rx.cfg.BlockSize, rx.cfg.STmin), nil
			}
		}
	}
	return nil, nil, nil
}
