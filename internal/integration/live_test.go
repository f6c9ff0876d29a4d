// Package integration runs full-stack tests: the STS handshake state
// machines exchanging real bytes over the complete automotive network
// substrate (CAN-FD frames → ISO-TP fragmentation → Fig. 6 session
// transport), followed by protected application records over the same
// link — the complete system of the paper's Figure 5 test suite, in
// software.
package integration

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/enroll"
	"repro/internal/session"
	"repro/internal/transport"
)

func newDetRand(seed int64) io.Reader { return detrand.NewReader(uint64(seed)) }

// node bundles one ECU: its credentials and its network endpoint.
type node struct {
	party *core.Party
	ep    *transport.Endpoint
}

// newLink builds the paper's prototype link: two zero-Config endpoints
// (no CRC trailer) on one lossless CAN-FD bus running on their world's
// clock.
func newLink(nameA string, idA uint32, nameB string, idB uint32) (*transport.Endpoint, *transport.Endpoint, *canbus.Bus) {
	w := transport.NewWorld(nil)
	bus := canbus.NewBus(canbus.PrototypeRates)
	bus.SetClock(w.Clock)
	return transport.NewReliableEndpoint(w, bus.Attach(nameA), idA, transport.Config{}),
		transport.NewReliableEndpoint(w, bus.Attach(nameB), idB, transport.Config{}),
		bus
}

// send ships one payload as one transport message.
func send(t *testing.T, ep *transport.Endpoint, commCode byte, payload []byte) {
	t.Helper()
	if _, err := ep.Send(transport.Message{
		CommCode: commCode, SessionID: 0x0001, OpCode: payload[0], Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
}

// recv polls one complete message's payload off the bus.
func recv(t *testing.T, ep *transport.Endpoint) []byte {
	t.Helper()
	msg, err := ep.Poll()
	if err != nil {
		t.Fatal(err)
	}
	return msg.Payload
}

// carrier returns a core.Exchange carry that ships every handshake
// message over the bus between a's and b's endpoints.
func carrier(t *testing.T, a, b *node) func([]byte, bool) ([]byte, error) {
	return func(msg []byte, toB bool) ([]byte, error) {
		src, dst := a.ep, b.ep
		if !toB {
			src, dst = b.ep, a.ep
		}
		send(t, src, 0x10, msg)
		return recv(t, dst), nil
	}
}

func timeNow() time.Time { return time.Unix(1700000000, 0) }

const timeHour = time.Hour

func setup(t *testing.T, seed int64) (*node, *node, *canbus.Bus) {
	t.Helper()
	net, err := core.NewNetwork(ec.P256(), newDetRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, err := net.Pair("evcc", "bms")
	if err != nil {
		t.Fatal(err)
	}
	epA, epB, bus := newLink("evcc", 0x101, "bms", 0x102)
	return &node{party: pa, ep: epA}, &node{party: pb, ep: epB}, bus
}

// newEngines builds the initiator for a and the responder for b.
func newEngines(t *testing.T, a, b *node, opt core.STSOptimization) (*core.Initiator, *core.Responder) {
	t.Helper()
	init, err := core.NewInitiator(a.party, opt)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := core.NewResponder(b.party, opt)
	if err != nil {
		t.Fatal(err)
	}
	return init, resp
}

// runLiveHandshake drives a complete STS handshake over the bus and
// returns both key blocks.
func runLiveHandshake(t *testing.T, a, b *node, opt core.STSOptimization) ([]byte, []byte) {
	t.Helper()
	init, resp := newEngines(t, a, b, opt)
	if err := core.Exchange(init, resp, carrier(t, a, b)); err != nil {
		t.Fatal(err)
	}
	keyA, err := init.SessionKey()
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := resp.SessionKey()
	if err != nil {
		t.Fatal(err)
	}
	return keyA, keyB
}

func TestLiveHandshakeOverCANFD(t *testing.T) {
	for _, opt := range []core.STSOptimization{core.OptNone, core.OptI, core.OptII} {
		t.Run(opt.String(), func(t *testing.T) {
			a, b, bus := setup(t, 31)
			keyA, keyB := runLiveHandshake(t, a, b, opt)
			if !bytes.Equal(keyA, keyB) {
				t.Fatal("live handshake keys disagree")
			}
			stats := bus.Stats()
			// 4 handshake messages; the big ones fragment. At least
			// 4 data frames + flow control traffic; all byte counts
			// positive.
			if stats.Frames < 8 {
				t.Errorf("only %d frames on the bus", stats.Frames)
			}
			if stats.WireTime <= 0 || stats.WireTime > 10*time.Millisecond {
				t.Errorf("implausible wire time %v", stats.WireTime)
			}
		})
	}
}

func TestLiveSessionRecordsOverCANFD(t *testing.T) {
	// Handshake, then protected telemetry records over the same bus.
	a, b, _ := setup(t, 32)
	keyA, keyB := runLiveHandshake(t, a, b, core.OptNone)

	chA, _, err := session.NewPair(keyA, session.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	_, chB, err := session.NewPair(keyB, session.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		telemetry := []byte{0xCA, byte(i), 0xFE}
		rec, err := chA.Seal(telemetry)
		if err != nil {
			t.Fatal(err)
		}
		send(t, a.ep, 0x20, rec)
		got, err := chB.Open(recv(t, b.ep))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, telemetry) {
			t.Fatalf("record %d corrupted", i)
		}
	}

	// A back-to-back resend of one record is the transport's duplicate
	// (a SingleFrame duplicated on the wire looks the same): counted,
	// never delivered.
	r1, _ := chA.Seal([]byte("r1"))
	r2, _ := chA.Seal([]byte("r2"))
	send(t, a.ep, 0x20, r1)
	send(t, a.ep, 0x20, r1)
	if _, err := chB.Open(recv(t, b.ep)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ep.Poll(); !errors.Is(err, transport.ErrNoMessage) {
		t.Fatalf("back-to-back resend surfaced: %v", err)
	}
	if n := b.ep.Stats().DuplicateMessages; n != 1 {
		t.Errorf("DuplicateMessages = %d, want 1", n)
	}

	// Replay at the bus level: r1 again after r2 is no duplicate to the
	// transport, which delivers r1, r2 and r1; the session layer must
	// reject the third.
	send(t, a.ep, 0x20, r2)
	send(t, a.ep, 0x20, r1)
	if _, err := chB.Open(recv(t, b.ep)); err != nil {
		t.Fatal(err)
	}
	if _, err := chB.Open(recv(t, b.ep)); err == nil {
		t.Fatal("bus-level replay accepted by the session layer")
	}
}

func TestLiveHandshakeTamperedOnWire(t *testing.T) {
	// A man-in-the-middle flips a certificate byte inside B1 while it
	// crosses the bus; the initiator must abort.
	a, b, _ := setup(t, 33)
	init, resp := newEngines(t, a, b, core.OptNone)
	overBus := carrier(t, a, b)
	tampered := false
	err := core.Exchange(init, resp, func(msg []byte, toB bool) ([]byte, error) {
		if !toB && !tampered {
			tampered = true
			msg = append([]byte(nil), msg...)
			msg[30] ^= 0x01
		}
		return overBus(msg, toB)
	})
	if !errors.Is(err, core.ErrHandshakeAuth) {
		t.Fatalf("tampered B1 over the wire: got %v, want ErrHandshakeAuth", err)
	}
}

func TestEnrollmentOverCANFD(t *testing.T) {
	// The complete Figure 1 pipeline over the bus: a factory-fresh
	// device enrolls with the CA gateway over CAN-FD (stages 1–2),
	// then immediately establishes an STS session with an already-
	// provisioned peer (stage 3).
	rng := newDetRand(35)
	ca, err := ecqv.NewCA(ec.P256(), ecqv.NewID("gateway-ca"), rng)
	if err != nil {
		t.Fatal(err)
	}
	gw := &enroll.Gateway{CA: ca}

	epDev, epGw, _ := newLink("new-ecu", 0x201, "gateway", 0x202)

	dev := &enroll.Device{
		Curve: ec.P256(),
		ID:    ecqv.NewID("new-ecu"),
		CAPub: ca.PublicKey(),
		Rand:  rng,
	}
	reqBytes, err := dev.Start()
	if err != nil {
		t.Fatal(err)
	}
	send(t, epDev, 0x30, reqBytes)
	respBytes := gw.Handle(recv(t, epGw))
	send(t, epGw, 0x30, respBytes)
	cert, priv, err := dev.Finish(recv(t, epDev))
	if err != nil {
		t.Fatal(err)
	}

	// Stage 3: the freshly enrolled device runs STS with a peer that
	// enrolled directly against the CA.
	peerReq, peerSec, err := ecqv.NewRequest(ec.P256(), ecqv.NewID("old-ecu"), rng)
	if err != nil {
		t.Fatal(err)
	}
	peerResp, err := ca.Issue(peerReq, ecqv.IssueParams{
		ValidFrom: timeNow(), ValidTo: timeNow().Add(24 * timeHour),
		KeyUsage: ecqv.UsageKeyAgreement | ecqv.UsageSignature,
	})
	if err != nil {
		t.Fatal(err)
	}
	peerPriv, _, err := ecqv.ReconstructPrivateKey(peerSec, peerResp, ca.PublicKey())
	if err != nil {
		t.Fatal(err)
	}

	newParty := &core.Party{
		ID: dev.ID, Curve: ec.P256(), Cert: cert, Priv: priv,
		CAPub: ca.PublicKey(), Rand: rng,
	}
	oldParty := &core.Party{
		ID: ecqv.NewID("old-ecu"), Curve: ec.P256(), Cert: peerResp.Cert,
		Priv: peerPriv, CAPub: ca.PublicKey(), Rand: rng,
	}
	res, err := core.NewSTS(core.OptNone).Run(newParty, oldParty)
	if err != nil {
		t.Fatalf("enrolled device failed STS: %v", err)
	}
	if _, err := res.SessionKey(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveBusByteAccounting(t *testing.T) {
	// The handshake's application bytes on the bus must equal the
	// Table II total plus framing: 491 protocol bytes + 4 step codes +
	// 4×4 transport headers.
	a, b, bus := setup(t, 34)
	runLiveHandshake(t, a, b, core.OptNone)
	want := 491 + 4 + 4*transport.HeaderSize
	// Bus payload bytes include ISO-TP PCI bytes and flow-control
	// frames; the protocol share is want. Check bounds: the bus must
	// carry at least want and no more than want + framing slack.
	stats := bus.Stats()
	if stats.Bytes < want {
		t.Errorf("bus carried %d payload bytes, protocol needs %d", stats.Bytes, want)
	}
	if stats.Bytes > want+100 {
		t.Errorf("bus carried %d payload bytes, excessive framing over %d", stats.Bytes, want)
	}
}
