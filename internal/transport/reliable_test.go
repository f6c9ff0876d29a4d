package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/canbus"
	"repro/internal/cantp"
)

// reliablePair builds two reliable endpoints on one (optionally
// impaired) bus.
func reliablePair(t *testing.T, imp *canbus.Impairment, cfg Config) (*Endpoint, *Endpoint, *World, *canbus.Bus) {
	t.Helper()
	w := NewWorld(nil)
	bus := canbus.NewBus(canbus.PrototypeRates)
	bus.SetClock(w.Clock)
	if imp != nil {
		bus.Impair(*imp)
	}
	acfg, bcfg := cfg, cfg
	acfg.AcceptID, bcfg.AcceptID = 0x102, 0x101
	a := NewReliableEndpoint(w, bus.Attach("a"), 0x101, acfg)
	b := NewReliableEndpoint(w, bus.Attach("b"), 0x102, bcfg)
	return a, b, w, bus
}

func testPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}

func TestReliableLosslessRoundTrip(t *testing.T) {
	a, b, w, _ := reliablePair(t, nil, DefaultConfig())
	for _, n := range []int{3, 100, 245, 800} {
		m := Message{CommCode: 1, SessionID: 9, OpCode: 2, Payload: testPayload(n)}
		if _, err := a.Send(m); err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		w.Run()
		got, err := b.Poll()
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		if !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("size %d corrupted", n)
		}
	}
	if st := a.Stats(); st.Retransmits != 0 || st.AbortedSends != 0 {
		t.Errorf("lossless path paid reliability costs: %+v", st)
	}
}

func TestReliableSurvivesFrameLoss(t *testing.T) {
	// Drop 15% of frames: FirstFrames, FlowControls and
	// ConsecutiveFrames die regularly, forcing N_Bs retransmissions
	// and whole-message resends. Deliver must still converge.
	imp := &canbus.Impairment{Seed: 11, Drop: 0.15}
	a, b, w, _ := reliablePair(t, imp, DefaultConfig())
	link := &Link{World: w, MaxResend: 10}

	var recovered bool
	for i := 0; i < 8; i++ {
		m := Message{CommCode: 1, SessionID: 1, OpCode: byte(i), Payload: testPayload(300)}
		got, err := link.Deliver(a, b, m)
		if err != nil {
			t.Fatalf("message %d failed under 15%% loss: %v", i, err)
		}
		if !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("message %d corrupted", i)
		}
	}
	st := a.Stats()
	recovered = st.Retransmits > 0 || st.MessageResends > 0
	if !recovered {
		t.Errorf("no recovery activity under 15%% loss: %+v", st)
	}
}

func TestReliableChecksumRejectsCorruption(t *testing.T) {
	// Corrupt every frame: the CRC-32 trailer (or ISO-TP PCI checks)
	// must reject everything; nothing may surface corrupted. The
	// payload fills its frame exactly (54 + 4 header + 4 CRC = 62, the
	// FD SingleFrame maximum), so every flipped bit hits a meaningful
	// byte rather than DLC padding.
	imp := &canbus.Impairment{Seed: 13, Corrupt: 1}
	a, b, w, _ := reliablePair(t, imp, DefaultConfig())
	m := Message{CommCode: 2, SessionID: 2, OpCode: 2, Payload: testPayload(54)}
	if _, err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if _, err := b.Poll(); err == nil {
		t.Fatal("corrupted message surfaced")
	}
	st := b.Stats()
	if st.IntegrityDrops+st.ProtocolDrops == 0 {
		t.Errorf("corruption not counted anywhere: %+v", st)
	}
}

func TestReliableDeliverRecoversFromCorruption(t *testing.T) {
	imp := &canbus.Impairment{Seed: 17, Corrupt: 0.25}
	a, b, w, _ := reliablePair(t, imp, DefaultConfig())
	link := &Link{World: w, MaxResend: 10}
	m := Message{CommCode: 3, SessionID: 3, OpCode: 3, Payload: testPayload(200)}
	got, err := link.Deliver(a, b, m)
	if err != nil {
		t.Fatalf("delivery failed under 25%% corruption: %v", err)
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("payload corrupted end-to-end")
	}
}

func TestReliableDuplicateSuppression(t *testing.T) {
	imp := &canbus.Impairment{Seed: 19, Duplicate: 1}
	a, b, w, _ := reliablePair(t, imp, DefaultConfig())
	m := Message{CommCode: 1, SessionID: 4, OpCode: 5, Payload: testPayload(10)}
	if _, err := a.Send(m); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if _, err := b.Poll(); err != nil {
		t.Fatal("message lost")
	}
	if _, err := b.Poll(); err == nil {
		t.Fatal("duplicated single-frame message surfaced twice")
	}
	if b.Stats().DuplicateMessages == 0 {
		t.Error("duplicate not counted")
	}
}

// forger is a test Agent that answers every FirstFrame carrying the
// identifier from with forged FlowControls under identifier as, from
// a tap on the bus, the way scenario's inject adversary does. The
// world pumps it before the endpoints, so its frames reach the sender
// ahead of the genuine receiver's Continue.
type forger struct {
	tap      *canbus.Node
	from, as uint32
	fcs      [][]byte
}

func (f *forger) Pump() int {
	injected := 0
	for {
		fr, ok := f.tap.Receive()
		if !ok {
			return injected
		}
		if fr.ID != f.from || len(fr.Data) == 0 || fr.Data[0]>>4 != 0x1 {
			continue
		}
		for _, fc := range f.fcs {
			if _, err := f.tap.Send(canbus.Frame{ID: f.as, BRS: true, Data: fc}); err == nil {
				injected++
			}
		}
	}
}

func (f *forger) NextDeadline() time.Duration { return 0 }

// TestReliableOverflowIsTerminal puts a forged FlowControl(Overflow)
// on the bus ahead of the receiver's Continue: the sender aborts, and
// Deliver returns the verdict at once instead of resending.
func TestReliableOverflowIsTerminal(t *testing.T) {
	a, b, w, bus := reliablePair(t, nil, DefaultConfig())
	w.AddAgent(&forger{tap: bus.Attach("tap"), from: 0x101, as: 0x102,
		fcs: [][]byte{cantp.FlowControlFrame(cantp.FlowOverflow, 0, 0)}})
	link := &Link{World: w, MaxResend: 3}
	_, err := link.Deliver(a, b, Message{Payload: testPayload(400)})
	if !errors.Is(err, cantp.ErrFlowOverflow) {
		t.Fatalf("got %v, want ErrFlowOverflow", err)
	}
	if st := a.Stats(); st.MessageResends != 0 || st.AbortedSends != 1 {
		t.Errorf("overflow was retried or not counted: %+v", st)
	}
}

// TestReliableWaitChain puts two forged FlowControl(Wait)s on the bus
// ahead of the receiver's Continue: the sender honours both, within
// its budget of 4, and the message then goes through.
func TestReliableWaitChain(t *testing.T) {
	a, b, w, bus := reliablePair(t, nil, DefaultConfig())
	wait := cantp.FlowControlFrame(cantp.FlowWait, 0, 0)
	w.AddAgent(&forger{tap: bus.Attach("tap"), from: 0x101, as: 0x102, fcs: [][]byte{wait, wait}})
	m := Message{CommCode: 1, SessionID: 5, OpCode: 6, Payload: testPayload(300)}
	if _, err := a.Send(m); err != nil {
		t.Fatalf("send through Wait chain: %v", err)
	}
	w.Run()
	got, err := b.Poll()
	if err != nil || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("message lost behind Wait chain")
	}
	if a.Stats().WaitsHonoured != 2 {
		t.Errorf("sender honoured %d waits, want 2", a.Stats().WaitsHonoured)
	}
}

func TestReliableAcrossImpairedGatewayChain(t *testing.T) {
	// Three segments, two gateways, loss on every segment: Deliver
	// still gets messages across, and the clock accumulates gateway
	// store latency.
	w := NewWorld(nil)
	busA := canbus.NewBus(canbus.PrototypeRates)
	busB := canbus.NewBus(canbus.PrototypeRates)
	busC := canbus.NewBus(canbus.PrototypeRates)
	for i, bus := range []*canbus.Bus{busA, busB, busC} {
		bus.SetClock(w.Clock)
		bus.Impair(canbus.Impairment{Seed: uint64(100 + i), Drop: 0.1})
	}
	gw1 := canbus.NewGateway("gw1", w.Clock)
	gw2 := canbus.NewGateway("gw2", w.Clock)
	fwd := canbus.IDRange(0x100, 0x1FF)
	rev := canbus.IDRange(0x200, 0x2FF)
	lat := 50 * time.Microsecond
	if err := gw1.Route(busA, busB, fwd, lat); err != nil {
		t.Fatal(err)
	}
	if err := gw1.Route(busB, busA, rev, lat); err != nil {
		t.Fatal(err)
	}
	if err := gw2.Route(busB, busC, fwd, lat); err != nil {
		t.Fatal(err)
	}
	if err := gw2.Route(busC, busB, rev, lat); err != nil {
		t.Fatal(err)
	}
	w.AddGateway(gw1)
	w.AddGateway(gw2)

	acfg, ccfg := DefaultConfig(), DefaultConfig()
	acfg.AcceptID, ccfg.AcceptID = 0x210, 0x110
	a := NewReliableEndpoint(w, busA.Attach("initiator"), 0x110, acfg)
	c := NewReliableEndpoint(w, busC.Attach("responder"), 0x210, ccfg)
	link := &Link{World: w, MaxResend: 6}

	for i := 0; i < 4; i++ {
		out := Message{CommCode: 1, SessionID: 7, OpCode: byte(i), Payload: testPayload(150 + 40*i)}
		got, err := link.Deliver(a, c, out)
		if err != nil {
			t.Fatalf("A→C message %d: %v", i, err)
		}
		if !bytes.Equal(got.Payload, out.Payload) {
			t.Fatalf("A→C message %d corrupted", i)
		}
		back := Message{CommCode: 1, SessionID: 7, OpCode: 0x80 | byte(i), Payload: testPayload(90 + 30*i)}
		got, err = link.Deliver(c, a, back)
		if err != nil {
			t.Fatalf("C→A message %d: %v", i, err)
		}
		if !bytes.Equal(got.Payload, back.Payload) {
			t.Fatalf("C→A message %d corrupted", i)
		}
	}
	if gw1.Stats().Forwarded == 0 || gw2.Stats().Forwarded == 0 {
		t.Error("gateways forwarded nothing")
	}
	if gw1.Stats().StoreTime == 0 {
		t.Error("no store-and-forward latency accounted")
	}
}

func TestReliableDeterministicReplay(t *testing.T) {
	run := func() (Stats, Stats, canbus.Stats) {
		imp := &canbus.Impairment{Seed: 23, Drop: 0.15, Corrupt: 0.05}
		a, b, w, bus := reliablePair(t, imp, DefaultConfig())
		link := &Link{World: w, MaxResend: 6}
		for i := 0; i < 5; i++ {
			if _, err := link.Deliver(a, b, Message{OpCode: byte(i), Payload: testPayload(200)}); err != nil {
				t.Fatalf("message %d: %v", i, err)
			}
		}
		return a.Stats(), b.Stats(), bus.Stats()
	}
	a1, b1, s1 := run()
	a2, b2, s2 := run()
	if a1 != a2 || b1 != b2 || s1 != s2 {
		t.Fatalf("same seed diverged:\nA %+v vs %+v\nB %+v vs %+v\nbus %+v vs %+v", a1, a2, b1, b2, s1, s2)
	}
}
