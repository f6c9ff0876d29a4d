// Package transport implements the application-layer session framing
// of the paper's Figure 6 on top of the ISO-TP and CAN-FD substrates:
//
//	Application: | Comm. Code | Sess. Comm ID | OP Code | App. Data |
//	Transport:   ISO 15765-2 segmentation (internal/cantp)
//	Data link:   CAN-FD frames (internal/canbus)
//
// Endpoints exchange Messages; the endpoint accounts the simulated
// wire time of every frame so the prototype harness (Fig. 7) can
// report the CAN-FD transfer share of the session separately from the
// cryptographic processing time.
//
// Every Endpoint belongs to a World (see NewReliableEndpoint) and runs
// the one ISO-TP profile of internal/cantp — N_Bs and N_Cr supervision
// on the simulated clock, FlowControl Wait/Overflow handling, bounded
// FirstFrame retransmission with backoff — plus, when configured, a
// CRC-32 message trailer that rejects payloads corrupted below the CAN
// CRC's notice. On a lossless bus with a zero Config this puts exactly
// the frames of the paper's prototype on the wire. Link layers
// whole-message retransmission on top, which is what the handshake
// retry policies of internal/fleet build on.
package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/canbus"
	"repro/internal/cantp"
)

// HeaderSize is the application-layer header length.
const HeaderSize = 4

// ChecksumSize is the length of the optional CRC-32 message trailer.
const ChecksumSize = 4

// Message is one application-layer session message.
type Message struct {
	CommCode  byte   // protocol family discriminator
	SessionID uint16 // session communication ID
	OpCode    byte   // protocol step within the session
	Payload   []byte
}

// Encode serializes the message with its 4-byte header.
func (m Message) Encode() []byte {
	out := make([]byte, HeaderSize+len(m.Payload))
	out[0] = m.CommCode
	binary.BigEndian.PutUint16(out[1:3], m.SessionID)
	out[3] = m.OpCode
	copy(out[HeaderSize:], m.Payload)
	return out
}

// DecodeMessage parses an application-layer message.
func DecodeMessage(data []byte) (Message, error) {
	if len(data) < HeaderSize {
		return Message{}, fmt.Errorf("transport: message truncated (%d bytes)", len(data))
	}
	return Message{
		CommCode:  data[0],
		SessionID: binary.BigEndian.Uint16(data[1:3]),
		OpCode:    data[3],
		Payload:   append([]byte(nil), data[HeaderSize:]...),
	}, nil
}

// Stats accumulates per-endpoint traffic counters.
type Stats struct {
	MessagesSent     int
	MessagesReceived int
	FramesSent       int
	PayloadBytesSent int
	WireTime         time.Duration // bus time consumed by this endpoint's frames

	// Reliability counters.
	Retransmits       int // ISO-TP FirstFrame retransmissions (N_Bs expiry)
	WaitsHonoured     int // FlowControl(Wait) frames honoured while sending
	MessageResends    int // whole-message resends by Link.Deliver
	AbortedSends      int // transfers abandoned after exhausting budgets
	IntegrityDrops    int // reassembled messages failing the CRC-32 trailer
	ProtocolDrops     int // frames dropped for PCI/sequence violations
	DuplicateMessages int // consecutive identical messages suppressed
	// FilteredFrames counts frames the acceptance filter rejected. The
	// node rejects them (canbus.Node.SetAcceptID); Service adds them
	// here when it drains the node, and Flush discards them uncounted,
	// as it discards every frame it drains.
	FilteredFrames int
}

// Config parameterizes an endpoint. The ISO-TP timers and budgets are
// cantp's one profile and not configurable. The zero Config is the
// paper's prototype link: no trailer, no acceptance filter.
type Config struct {
	// Checksum appends a CRC-32 trailer to every message and rejects
	// reassembled messages whose trailer does not verify — the
	// "CRC-collision" corruption class the bit-level CAN CRC model
	// cannot catch. Both ends of a link must agree.
	Checksum bool
	// AcceptID is the hardware acceptance filter: only frames with
	// this CAN identifier reach the protocol state machines.
	// NewReliableEndpoint installs it on the endpoint's node
	// (canbus.Node.SetAcceptID), so the bus neither copies nor queues
	// any other broadcast on the segment for this endpoint, and
	// Service counts those in Stats.FilteredFrames. 0 accepts
	// everything — correct only for a two-node point-to-point segment;
	// on a shared segment an unfiltered endpoint would answer its
	// neighbours' FirstFrames with spoofed FlowControls.
	AcceptID uint32
	// Accounting, when non-nil, attributes every send's wire cost to
	// the message's OpCode — for handshake traffic, the Table II step.
	// Share one instance across a scenario's endpoints for a
	// fleet-wide per-step cost table.
	Accounting *Accounting
}

// DefaultConfig is the impaired-fabric profile used by the scenario
// engine, the fleet and the benchmark: the zero Config plus the CRC-32
// trailer.
func DefaultConfig() Config { return Config{Checksum: true} }

// Endpoint is one session participant attached to a CAN bus node.
type Endpoint struct {
	node  *canbus.Node
	txID  uint32
	cfg   Config
	world *World

	rx      cantp.Receiver
	sender  *cantp.Sender // non-nil only inside Send
	sendErr error         // terminal FC verdict discovered during Service
	inbox   []Message
	lastMsg []byte // last delivered message bytes, for duplicate suppression
	stats   Stats
}

// NewReliableEndpoint wraps a bus node and registers it with the
// world, whose clock drives every protocol timer. txID is the CAN
// identifier used for all frames this endpoint transmits. The node's
// bus should run on the world's clock (canbus.Bus.SetClock) so that
// wire time advances the timers. A non-zero cfg.AcceptID is installed
// on the node as its acceptance filter.
func NewReliableEndpoint(w *World, node *canbus.Node, txID uint32, cfg Config) *Endpoint {
	if cfg.AcceptID != 0 {
		node.SetAcceptID(cfg.AcceptID)
	}
	e := &Endpoint{
		node:  node,
		txID:  txID,
		cfg:   cfg,
		world: w,
	}
	w.addEndpoint(e)
	return e
}

// Stats returns a snapshot of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// ReceiverStats returns the ISO-TP reassembly counters, cumulative
// across Flushes.
func (e *Endpoint) ReceiverStats() cantp.ReceiverStats { return e.rx.Stats() }

// Flush discards buffered messages, partial reassembly state and any
// pending send verdict — the clean slate a fresh handshake attempt
// starts from. Statistics survive.
func (e *Endpoint) Flush() {
	for {
		if _, ok := e.node.Receive(); !ok {
			break
		}
	}
	e.node.TakeRejected()
	e.rx.Reset()
	e.inbox = nil
	e.lastMsg = nil
	e.sender = nil
	e.sendErr = nil
}

// now returns the world's simulated time.
func (e *Endpoint) now() time.Duration { return e.world.Clock.Now() }

// Send transmits a message. The cantp.Sender state machine runs with
// its timers on the world clock: it waits for FlowControls (pumping
// the world so the peer can answer), honours Wait, paces to STmin,
// retransmits the FirstFrame with backoff on N_Bs expiry and aborts
// on Overflow or budget exhaustion. The returned duration is the wire
// time of every frame this endpoint actually transmitted,
// retransmissions included.
func (e *Endpoint) Send(m Message) (time.Duration, error) {
	if e.cfg.Accounting == nil {
		return e.send(m)
	}
	f0, w0 := e.stats.FramesSent, e.stats.WireTime
	r0, wh0, ab0 := e.stats.Retransmits, e.stats.WaitsHonoured, e.stats.AbortedSends
	wt, err := e.send(m)
	e.cfg.Accounting.record(m.OpCode, func(c *StepCost) {
		c.Frames += e.stats.FramesSent - f0
		c.WireTime += e.stats.WireTime - w0
		c.Retransmits += e.stats.Retransmits - r0
		c.WaitsHonoured += e.stats.WaitsHonoured - wh0
		c.Aborted += e.stats.AbortedSends - ab0
		if err == nil {
			c.Messages++
			c.PayloadBytes += len(m.Payload)
		}
	})
	return wt, err
}

// accountResend attributes one whole-message resend (Link.Deliver) to
// the message's opcode.
func (e *Endpoint) accountResend(op byte) {
	if e.cfg.Accounting == nil {
		return
	}
	e.cfg.Accounting.record(op, func(c *StepCost) { c.Resends++ })
}

// accountQueueDelay attributes the post-send transit delay of a
// completed delivery (Link.Deliver) — store-and-forward and egress
// releases between the sender's last frame and the message surfacing
// at the destination — to the message's opcode.
func (e *Endpoint) accountQueueDelay(op byte, d time.Duration) {
	if e.cfg.Accounting == nil || d <= 0 {
		return
	}
	e.cfg.Accounting.record(op, func(c *StepCost) { c.QueueTime += d })
}

// send is the unaccounted transmit path behind Send.
func (e *Endpoint) send(m Message) (time.Duration, error) {
	payload := m.Encode()
	if e.cfg.Checksum {
		payload = appendChecksum(payload)
	}
	s, err := cantp.NewSender(payload, e.now())
	if err != nil {
		return 0, fmt.Errorf("transport: send: %w", err)
	}
	e.sender, e.sendErr = s, nil
	defer func() {
		st := s.Stats()
		e.stats.Retransmits += st.Retransmits
		e.stats.WaitsHonoured += st.WaitsHonoured
		e.sender = nil
	}()

	var total time.Duration
	for !s.Done() {
		now := e.now()
		if f := s.Next(now); f != nil {
			wt, err := e.transmit(f)
			if err != nil {
				return total, fmt.Errorf("transport: send frame: %w", err)
			}
			total += wt
			continue
		}
		if err := e.takeSendErr(); err != nil {
			e.stats.AbortedSends++
			return total, fmt.Errorf("transport: send: %w", err)
		}
		// Waiting on a FlowControl or the STmin gate: let the rest of
		// the world make progress (gateways forward, peers answer, our
		// own Service feeds FCs to the sender)...
		moved := e.world.Run()
		if err := e.takeSendErr(); err != nil {
			e.stats.AbortedSends++
			return total, fmt.Errorf("transport: send: %w", err)
		}
		if moved > 0 {
			// Something happened (possibly our FC): re-evaluate the
			// sender before touching the clock.
			continue
		}
		now = e.now()
		if at := s.ReadyAt(); at > now {
			// ...then jump the clock over the pacing gap...
			e.world.AdvanceTo(at)
			continue
		}
		if s.Deadline() > 0 {
			// ...or toward the N_Bs deadline one timer at a time,
			// stopping the moment the awaited FlowControl lands (a
			// Wait re-arms the deadline; a Continue clears it, and
			// simulated time must not inflate past that point).
			for s.Deadline() > 0 && e.now() < s.Deadline() {
				e.world.Step(s.Deadline())
				if err := e.takeSendErr(); err != nil {
					e.stats.AbortedSends++
					return total, fmt.Errorf("transport: send: %w", err)
				}
			}
			if err := s.OnTimeout(e.now()); err != nil {
				e.stats.AbortedSends++
				return total, fmt.Errorf("transport: send: %w", err)
			}
			continue
		}
		if s.Done() {
			break
		}
		return total, errors.New("transport: sender stalled")
	}
	e.stats.MessagesSent++
	e.stats.PayloadBytesSent += len(m.Payload)
	return total, nil
}

// takeSendErr consumes a terminal verdict (Overflow, Wait budget)
// delivered to the sender by Service mid-transfer.
func (e *Endpoint) takeSendErr() error {
	err := e.sendErr
	e.sendErr = nil
	return err
}

// transmit puts one ISO-TP frame payload on the wire, charging the
// frame to the endpoint's counters (so FlowControls and the frames of
// an eventually-aborted transfer are accounted too).
func (e *Endpoint) transmit(payload []byte) (time.Duration, error) {
	wt, err := e.node.Send(canbus.Frame{ID: e.txID, BRS: true, Data: payload})
	if err != nil {
		return 0, err
	}
	e.stats.FramesSent++
	e.stats.WireTime += wt
	return wt, nil
}

// Service drains the receive queue into the protocol state machines:
// FlowControls feed the active sender, data frames feed the receiver
// (answering each FirstFrame with its FlowControl), completed messages
// land in the inbox after checksum verification, and the frames the
// node's acceptance filter rejected since the last drain are counted
// in Stats.FilteredFrames. Protocol violations are counted in Stats
// and survived. It also services the receiver's N_Cr timer, unless the
// receiver has no transfer in progress and so arms none: then it
// returns right after counting the rejected frames, which is all a
// node holding only other identifiers' frames costs. Returns the
// number of frames processed, rejected ones included, as the world
// pump's progress measure.
func (e *Endpoint) Service() int {
	processed := 0
	for {
		frame, ok := e.node.Receive()
		if !ok {
			break
		}
		processed++
		now := e.now()
		if len(frame.Data) > 0 && frame.Data[0]>>4 == 0x3 {
			e.serviceFlowControl(frame.Data, now)
			continue
		}
		msg, fc, err := e.rx.Push(frame.Data, now)
		if err != nil {
			e.stats.ProtocolDrops++
			continue
		}
		if fc != nil {
			// A FlowControl that fails to go out is a lost one; the
			// sender's N_Bs timer recovers from it.
			_, _ = e.transmit(fc)
		}
		if msg != nil {
			e.deliver(msg)
		}
	}
	filtered := e.node.TakeRejected()
	e.stats.FilteredFrames += filtered
	if e.rx.Active() {
		e.expire()
	}
	return processed + filtered
}

// idle reports whether Service and expire would do nothing: no frame
// holds a slot in the node's receive queue, and the receiver has no
// transfer in progress, so no timer is armed.
func (e *Endpoint) idle() bool { return e.node.Pending() == 0 && !e.rx.Active() }

// serviceFlowControl routes an FC frame to the active sender, or
// validates and discards it when no transfer is in flight.
func (e *Endpoint) serviceFlowControl(data []byte, now time.Duration) {
	if e.sender != nil {
		if err := e.sender.OnFlowControl(data, now); err != nil {
			// Terminal verdicts surface to the Send loop; malformed
			// FCs are counted and dropped.
			if errors.Is(err, cantp.ErrFlowOverflow) || errors.Is(err, cantp.ErrWaitBudget) {
				e.sendErr = err
			} else {
				e.stats.ProtocolDrops++
			}
		}
		return
	}
	if _, _, _, err := cantp.ParseFlowControl(data); err != nil {
		e.stats.ProtocolDrops++
	}
}

// expire services the receiver's N_Cr timer: a lapse abandons the
// partial transfer, which ReceiverStats counts, so the error adds
// nothing.
func (e *Endpoint) expire() { _ = e.rx.Expire(e.now()) }

// deliver verifies, decodes and enqueues a reassembled message.
func (e *Endpoint) deliver(raw []byte) {
	if e.cfg.Checksum {
		stripped, ok := verifyChecksum(raw)
		if !ok {
			e.stats.IntegrityDrops++
			return
		}
		raw = stripped
	}
	if e.lastMsg != nil && bytes.Equal(raw, e.lastMsg) {
		// A duplicated SingleFrame (or a whole-message resend that
		// crossed its own reply) delivers the same bytes twice;
		// surfacing both would desynchronize strict request/response
		// protocols.
		e.stats.DuplicateMessages++
		return
	}
	msg, err := DecodeMessage(raw)
	if err != nil {
		e.stats.ProtocolDrops++
		return
	}
	e.lastMsg = append([]byte(nil), raw...)
	e.inbox = append(e.inbox, msg)
	e.stats.MessagesReceived++
}

// ErrNoMessage is returned by Poll when no complete message is pending.
var ErrNoMessage = errors.New("transport: no complete message available")

// Poll services the endpoint and returns the oldest complete message,
// or ErrNoMessage, the only error it returns: protocol violations are
// counted in Stats and survived, never surfaced here.
func (e *Endpoint) Poll() (Message, error) {
	e.Service()
	if len(e.inbox) == 0 {
		return Message{}, ErrNoMessage
	}
	msg := e.inbox[0]
	e.inbox = e.inbox[1:]
	return msg, nil
}

// appendChecksum suffixes data with its CRC-32 (IEEE).
func appendChecksum(data []byte) []byte {
	out := make([]byte, len(data)+ChecksumSize)
	copy(out, data)
	binary.BigEndian.PutUint32(out[len(data):], crc32.ChecksumIEEE(data))
	return out
}

// verifyChecksum strips and checks the CRC-32 trailer.
func verifyChecksum(data []byte) ([]byte, bool) {
	if len(data) < ChecksumSize {
		return nil, false
	}
	body := data[:len(data)-ChecksumSize]
	want := binary.BigEndian.Uint32(data[len(body):])
	return body, crc32.ChecksumIEEE(body) == want
}

// WireCost returns the total simulated wire time and frame count for
// sending a payload of n application bytes (header included) without
// transmitting anything — the static accounting used by the overhead
// tables.
func WireCost(n int, rates canbus.BitRates) (time.Duration, int, error) {
	frames, fc, err := cantp.FrameCount(n + HeaderSize)
	if err != nil {
		return 0, 0, err
	}
	// Data frames are full 64-byte frames except possibly the last;
	// for the static estimate assume full frames (upper bound).
	var total time.Duration
	for i := 0; i < frames; i++ {
		f := canbus.Frame{BRS: true, Data: make([]byte, canbus.MaxDataLen)}
		wt, err := f.WireTime(rates)
		if err != nil {
			return 0, 0, err
		}
		total += wt
	}
	if fc {
		f := canbus.Frame{BRS: true, Data: make([]byte, 3)}
		wt, err := f.WireTime(rates)
		if err != nil {
			return 0, 0, err
		}
		total += wt
		frames++
	}
	return total, frames, nil
}
