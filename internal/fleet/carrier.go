package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/transport"
)

// Carrier runs the wire exchange of one handshake attempt between the
// local initiator engine and the peer's responder engine. The default
// carrier hands the messages over in memory (core.Exchange with a nil
// carry); a NetCarrier instead pushes every handshake byte through the
// impaired multi-segment CAN simulation, where an attempt can fail and
// the Manager's retry policy takes over.
type Carrier interface {
	Exchange(init *core.Initiator, resp *core.Responder) error
}

// CarrierFactory selects the carrier for a peer — typically a
// NetCarrier over that peer's endpoint pair.
type CarrierFactory func(peer *core.Party) (Carrier, error)

// directCarrier is the lossless in-process exchange.
type directCarrier struct{}

func (directCarrier) Exchange(init *core.Initiator, resp *core.Responder) error {
	return core.Exchange(init, resp, nil)
}

// HandshakeCommCode tags handshake traffic on the session transport.
const HandshakeCommCode = 0x10

// NetCarrier drives a handshake attempt over a transport.Link: every
// engine message crosses the (possibly impaired, gateway-bridged) CAN
// fabric with ISO-TP timers and retransmission under it and
// whole-message resends on top. An exchange error means this attempt
// died on the wire (or desynchronized the strict engine states); the
// Manager then decides whether a fresh attempt is allowed.
type NetCarrier struct {
	Link      *transport.Link
	Local     *transport.Endpoint // initiator side
	Remote    *transport.Endpoint // responder side
	SessionID uint16
}

// Exchange runs one full handshake attempt between the engines over
// the fabric, serialized under the world's conversation lock so
// parallel EstablishAll calls share the single-goroutine pump safely.
func (c *NetCarrier) Exchange(init *core.Initiator, resp *core.Responder) error {
	// The world's endpoints are unsynchronized by design (one driving
	// goroutine = reproducibility); holding the conversation lock for
	// the whole attempt makes a parallel EstablishAll over one fabric
	// serialize safely instead of racing.
	c.Link.World.Acquire()
	defer c.Link.World.Release()

	// A fresh attempt starts from silence: move any in-flight frames
	// of the previous attempt to their queues, then discard them along
	// with partial reassembly state.
	c.Link.World.Run()
	c.Local.Flush()
	c.Remote.Flush()

	return core.Exchange(init, resp, c.deliver)
}

// deliver is the exchange's carry: Link.Deliver of one engine message
// to the other role's endpoint.
func (c *NetCarrier) deliver(payload []byte, toB bool) ([]byte, error) {
	src, dst, to := c.Local, c.Remote, "responder"
	if !toB {
		src, dst, to = c.Remote, c.Local, "initiator"
	}
	m := transport.Message{CommCode: HandshakeCommCode, SessionID: c.SessionID, Payload: payload}
	if len(payload) > 0 {
		m.OpCode = payload[0]
	}
	got, err := c.Link.Deliver(src, dst, m)
	if err != nil {
		return nil, fmt.Errorf("fleet: deliver to %s: %w", to, err)
	}
	return got.Payload, nil
}
