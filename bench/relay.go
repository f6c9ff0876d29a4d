package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/canbus"
	"repro/internal/cantp"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/transport"
)

// fabric-relay: the four real STS messages of one handshake, relayed
// over a three-segment chain with no cryptography in the loop — the
// wire half of fleet.NetCarrier.Exchange without the engines. Every
// bus drops 1% and corrupts 0.5% of frames (content-keyed), and both
// gateways store and forward for 50 µs and pace each flow at 600
// frames/s. A conversation whose delivery fails starts over as a fresh
// attempt, the way fleet.Manager retries a handshake, up to the
// scenario engine's attempt budget.
const (
	relayPairs          = 8
	relaySegments       = 3
	relayConvsPerSecond = 5000
	relayChunkConvs     = 250
	relayAttempts       = 10
	relayDrop           = 0.01
	relayCorrupt        = 0.005
	relayGatewayLatency = 50 * time.Microsecond
	initiatorIDBase     = 0x100
	responderIDBase     = 0x200
)

func setupRelay(seed uint64, seconds float64) (timedFunc, error) {
	return newRelay(seed, scaled(seconds, relayConvsPerSecond))
}

// topology describes a chain of impaired CAN segments the way the
// scenario engine builds one: each bus impaired with impair (salted by
// its index), gateways routing initiator identifiers forward and
// responder identifiers back, the initiators on the first segment and
// the responders on the last.
type topology struct {
	segments int
	pairs    int
	impair   canbus.Impairment
	latency  time.Duration
	egress   canbus.EgressPolicy
	acc      *transport.Accounting
}

// fabric is one built topology: the world pump, its segments and
// gateways, and an endpoint pair per conversation slot.
type fabric struct {
	world           *transport.World
	buses           []*canbus.Bus
	gateways        []*canbus.Gateway
	locals, remotes []*transport.Endpoint
	link            *transport.Link
}

func (t topology) build() (*fabric, error) {
	w := transport.NewWorld(nil)
	fab := &fabric{world: w, link: &transport.Link{World: w, MaxResend: 6}}
	for i := 0; i < t.segments; i++ {
		bus := canbus.NewBus(canbus.PrototypeRates)
		bus.SetClock(w.Clock)
		imp := t.impair
		imp.BusID = uint64(i)
		bus.Impair(imp)
		fab.buses = append(fab.buses, bus)
	}
	fwd := canbus.IDRange(initiatorIDBase, initiatorIDBase+0xFF)
	rev := canbus.IDRange(responderIDBase, responderIDBase+0xFF)
	for i := 0; i+1 < t.segments; i++ {
		gw := canbus.NewGateway(fmt.Sprintf("gw%d", i+1), w.Clock)
		lo, hi := fab.buses[i], fab.buses[i+1]
		if err := gw.Route(lo, hi, fwd, t.latency); err != nil {
			return nil, err
		}
		if err := gw.Route(hi, lo, rev, t.latency); err != nil {
			return nil, err
		}
		if t.egress.Rate > 0 {
			if err := gw.SetEgress(lo, t.egress); err != nil {
				return nil, err
			}
			if err := gw.SetEgress(hi, t.egress); err != nil {
				return nil, err
			}
		}
		w.AddGateway(gw)
		fab.gateways = append(fab.gateways, gw)
	}
	base := transport.DefaultConfig()
	base.Accounting = t.acc
	first, last := fab.buses[0], fab.buses[t.segments-1]
	for i := 0; i < t.pairs; i++ {
		lcfg, rcfg := base, base
		lcfg.AcceptID = responderIDBase + uint32(i)
		rcfg.AcceptID = initiatorIDBase + uint32(i)
		fab.locals = append(fab.locals, transport.NewReliableEndpoint(w, first.Attach(fmt.Sprintf("init-%d", i)), initiatorIDBase+uint32(i), lcfg))
		fab.remotes = append(fab.remotes, transport.NewReliableEndpoint(w, last.Attach(fmt.Sprintf("resp-%d", i)), responderIDBase+uint32(i), rcfg))
	}
	return fab, nil
}

// fabricCounts is a snapshot of every fabric counter the relay reports.
type fabricCounts struct {
	frames, faults, forwarded, egressQueued int
	retransmits, resends, abandoned         int
	sim                                     time.Duration
}

func (fab *fabric) counts() fabricCounts {
	var c fabricCounts
	for _, b := range fab.buses {
		st := b.Stats()
		c.frames += st.Frames
		c.faults += st.Dropped + st.Corrupted + st.Duplicated + st.Delayed
	}
	for _, g := range fab.gateways {
		st := g.Stats()
		c.forwarded += st.Forwarded
		c.egressQueued += st.EgressQueued
	}
	for _, eps := range [][]*transport.Endpoint{fab.locals, fab.remotes} {
		for _, e := range eps {
			c.retransmits += e.Stats().Retransmits
			c.resends += e.Stats().MessageResends
			c.abandoned += e.ReceiverStats().Abandoned
		}
	}
	c.sim = fab.world.Clock.Now()
	return c
}

// newRelay captures the four messages of one engine handshake, builds
// the chain and returns the timed loop of convs conversations.
func newRelay(seed uint64, convs int) (timedFunc, error) {
	net, err := core.NewNetwork(ec.P256(), detrand.NewReader(detrand.DeriveSeed(seed, []byte("fabric-relay"))))
	if err != nil {
		return nil, err
	}
	msgs, err := handshakeMessages(net)
	if err != nil {
		return nil, err
	}
	fab, err := topology{
		segments: relaySegments,
		pairs:    relayPairs,
		impair:   canbus.Impairment{Seed: seed, Drop: relayDrop, Corrupt: relayCorrupt},
		latency:  relayGatewayLatency,
		egress:   canbus.EgressPolicy{Rate: 600, Queue: 256},
	}.build()
	if err != nil {
		return nil, err
	}

	return func(tr *tracer) (*pass, error) {
		p := &pass{attempted: convs}
		var ch chunker
		deliveries := 0
		overflows := 0
		c0 := fab.counts()

		start := time.Now()
		from := start
		for c := 0; c < convs; c++ {
			i := c % relayPairs
			local, remote := fab.locals[i], fab.remotes[i]
			conv := tr.begin("relay.conversation", -1, c, 0)
			for attempt := 1; ; attempt++ {
				fl := tr.begin("transport.flush", conv, c, 0)
				fab.world.Run()
				local.Flush()
				remote.Flush()
				tr.end(fl)

				err := func() error {
					for k, payload := range msgs {
						src, dst := local, remote
						if k%2 == 1 {
							src, dst = remote, local
						}
						sent := handshakeMessage(uint16(i+1), payload)
						id := tr.begin("transport.deliver", conv, c, 0)
						t0 := time.Now()
						got, err := fab.link.Deliver(src, dst, sent)
						d := time.Since(t0)
						tr.end(id)
						if err != nil {
							return err
						}
						if got.CommCode != sent.CommCode || got.SessionID != sent.SessionID || got.OpCode != sent.OpCode || !bytes.Equal(got.Payload, payload) {
							return checkf(false, "conversation %d: message %d delivered corrupted", c, k)
						}
						ch.sample(d)
					}
					return nil
				}()
				if err == nil {
					break
				}
				if errors.Is(err, errCheck) {
					return nil, err
				}
				if errors.Is(err, cantp.ErrFlowOverflow) {
					overflows++
				}
				if attempt == relayAttempts {
					p.failed++
					break
				}
			}
			tr.end(conv)
			if (c+1)%relayChunkConvs == 0 || c == convs-1 {
				now := time.Now()
				deliveries += len(ch.cur.lat)
				ch.cut(len(ch.cur.lat), now.Sub(from))
				from = now
			}
		}
		p.wall = time.Since(start)

		c1 := fab.counts()
		perDelivery := func(n int) float64 { return ratio(float64(n), float64(deliveries)) }
		perK := func(n int) float64 { return 1000 * perDelivery(n) }
		p.perSecond, p.p50, p.tail = timings(ch.chunks, 99)
		p.layer = map[string]float64{
			"canbus.frames_per_delivery":    perDelivery(c1.frames - c0.frames),
			"canbus.forwarded_per_delivery": perDelivery(c1.forwarded - c0.forwarded),
			"canbus.faults":                 float64(c1.faults - c0.faults),
			"canbus.egress_queued":          float64(c1.egressQueued - c0.egressQueued),
			"cantp.retransmits_per_1k":      perK(c1.retransmits - c0.retransmits),
			"cantp.abandoned_per_1k":        perK(c1.abandoned - c0.abandoned),
			"transport.resends_per_1k":      perK(c1.resends - c0.resends),
			"transport.overflow_aborts":     float64(overflows),
			"transport.sim_s_per_host_s":    ratio((c1.sim - c0.sim).Seconds(), p.wall.Seconds()),
		}
		p.liveHeapMB = liveHeapMB(fab, msgs)
		return p, nil
	}, nil
}

// handshakeMessages runs one in-process STS handshake between two fresh
// parties and returns its wire messages A1, B1, A2, B2.
func handshakeMessages(net *core.Network) ([][]byte, error) {
	a, err := net.Provision("relay-a")
	if err != nil {
		return nil, err
	}
	b, err := net.Provision("relay-b")
	if err != nil {
		return nil, err
	}
	init, err := core.NewInitiator(a, core.OptNone)
	if err != nil {
		return nil, err
	}
	resp, err := core.NewResponder(b, core.OptNone)
	if err != nil {
		return nil, err
	}
	a1, err := init.Start()
	if err != nil {
		return nil, err
	}
	b1, _, err := resp.Handle(a1)
	if err != nil {
		return nil, err
	}
	a2, _, err := init.Handle(b1)
	if err != nil {
		return nil, err
	}
	b2, _, err := resp.Handle(a2)
	if err != nil {
		return nil, err
	}
	if _, done, err := init.Handle(b2); err != nil || !done {
		return nil, fmt.Errorf("capture handshake did not complete: %v", err)
	}
	return [][]byte{a1, b1, a2, b2}, nil
}
