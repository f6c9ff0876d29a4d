package transport

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/canbus"
)

// newPair builds the prototype link: two zero-Config endpoints on one
// lossless bus.
func newPair(t *testing.T) (*Endpoint, *Endpoint, *canbus.Bus) {
	t.Helper()
	w := NewWorld(nil)
	bus := canbus.NewBus(canbus.PrototypeRates)
	bus.SetClock(w.Clock)
	a := NewReliableEndpoint(w, bus.Attach("bms"), 0x101, Config{})
	b := NewReliableEndpoint(w, bus.Attach("evcc"), 0x102, Config{})
	return a, b, bus
}

func TestMessageEncodeDecode(t *testing.T) {
	m := Message{CommCode: 0x7, SessionID: 0xBEEF, OpCode: 3, Payload: []byte("hello")}
	enc := m.Encode()
	if len(enc) != HeaderSize+5 {
		t.Fatalf("encoded length %d", len(enc))
	}
	dec, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.CommCode != m.CommCode || dec.SessionID != m.SessionID ||
		dec.OpCode != m.OpCode || !bytes.Equal(dec.Payload, m.Payload) {
		t.Errorf("round trip mismatch: %+v", dec)
	}
	if _, err := DecodeMessage([]byte{1, 2}); err == nil {
		t.Error("truncated message accepted")
	}
	// Empty payload is legal.
	short, err := DecodeMessage(Message{OpCode: 1}.Encode())
	if err != nil || len(short.Payload) != 0 {
		t.Errorf("empty payload round trip: %+v, %v", short, err)
	}
}

func TestSmallMessageExchange(t *testing.T) {
	a, b, _ := newPair(t)
	sent := Message{CommCode: 1, SessionID: 42, OpCode: 7, Payload: []byte("ack")}
	wt, err := a.Send(sent)
	if err != nil {
		t.Fatal(err)
	}
	if wt <= 0 {
		t.Error("non-positive wire time")
	}
	got, err := b.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if got.OpCode != 7 || !bytes.Equal(got.Payload, sent.Payload) {
		t.Errorf("received %+v", got)
	}
	// Nothing further pending.
	if _, err := b.Poll(); !errors.Is(err, ErrNoMessage) {
		t.Errorf("got %v, want ErrNoMessage", err)
	}
}

func TestLargeMessageFragmentsAndFlowControl(t *testing.T) {
	a, b, bus := newPair(t)
	// A certificate+signature-sized payload (Table II step B1 of STS:
	// ID 16 + Cert 101 + XG 64 + Resp 64 = 245 bytes).
	payload := make([]byte, 245)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := a.Send(Message{CommCode: 2, SessionID: 1, OpCode: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("fragmented payload corrupted")
	}
	// The receiver must have emitted a FlowControl frame.
	bStats := b.Stats()
	if bStats.FramesSent != 1 {
		t.Errorf("receiver sent %d frames, want 1 (flow control)", bStats.FramesSent)
	}
	// Sender: 245+4 = 249 bytes → FF(62) + 3×CF(63) = 62+189 = 251 ≥ 249 → 4 frames.
	aStats := a.Stats()
	if aStats.FramesSent != 4 {
		t.Errorf("sender used %d frames, want 4", aStats.FramesSent)
	}
	// The sender consumed the flow-control frame; nothing surfaces.
	if _, err := a.Poll(); !errors.Is(err, ErrNoMessage) {
		t.Errorf("sender Poll: %v, want ErrNoMessage", err)
	}
	if bus.Stats().Frames != 5 {
		t.Errorf("bus carried %d frames, want 5", bus.Stats().Frames)
	}
}

func TestBidirectionalSession(t *testing.T) {
	a, b, _ := newPair(t)
	// Ping-pong like a KD protocol run: A1, B1, A2, B2.
	steps := []struct {
		from, to *Endpoint
		op       byte
		size     int
	}{
		{a, b, 1, 80},  // A1: ID + XG
		{b, a, 2, 245}, // B1: ID + Cert + XG + Resp
		{a, b, 3, 165}, // A2: Cert + Resp
		{b, a, 4, 1},   // B2: ACK
	}
	for i, s := range steps {
		payload := make([]byte, s.size)
		if _, err := s.from.Send(Message{SessionID: 9, OpCode: s.op, Payload: payload}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, err := s.to.Poll()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got.OpCode != s.op || len(got.Payload) != s.size {
			t.Fatalf("step %d: got op %d size %d", i, got.OpCode, len(got.Payload))
		}
	}
	if a.Stats().MessagesSent != 2 || a.Stats().MessagesReceived != 2 {
		t.Errorf("a stats: %+v", a.Stats())
	}
	if b.Stats().MessagesSent != 2 || b.Stats().MessagesReceived != 2 {
		t.Errorf("b stats: %+v", b.Stats())
	}
}

func TestWireTimeNegligible(t *testing.T) {
	// The paper: "The CAN-FD transfer time over the physical link was
	// negligible (< 1 ms)". Each individual frame stays well under
	// 1 ms, and even the largest fragmented protocol message (245 B,
	// five frames) stays in the low single-digit milliseconds — three
	// orders of magnitude below the multi-second processing times of
	// Fig. 7.
	frame := canbus.Frame{ID: 1, BRS: true, Data: make([]byte, canbus.MaxDataLen)}
	perFrame, err := frame.WireTime(canbus.PrototypeRates)
	if err != nil {
		t.Fatal(err)
	}
	if perFrame.Milliseconds() >= 1 {
		t.Errorf("single frame wire time %v, want < 1ms", perFrame)
	}

	a, b, _ := newPair(t)
	payload := make([]byte, 245)
	wt, err := a.Send(Message{OpCode: 1, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Poll(); err != nil {
		t.Fatal(err)
	}
	totalWire := a.Stats().WireTime + b.Stats().WireTime
	if totalWire.Milliseconds() >= 3 {
		t.Errorf("245-byte message wire time %v, want < 3ms", totalWire)
	}
	if wt <= 0 {
		t.Error("wire time not accounted")
	}
}

func TestSendTooLarge(t *testing.T) {
	a, _, _ := newPair(t)
	if _, err := a.Send(Message{Payload: make([]byte, 5000)}); err == nil {
		t.Error("oversize message accepted")
	}
}

func TestWireCost(t *testing.T) {
	wt, frames, err := WireCost(245, canbus.PrototypeRates)
	if err != nil {
		t.Fatal(err)
	}
	if frames != 5 { // 4 data + 1 flow control
		t.Errorf("frames = %d, want 5", frames)
	}
	if wt <= 0 || wt.Milliseconds() >= 2 {
		t.Errorf("wire cost %v implausible", wt)
	}
	// Small message: single frame, no FC.
	_, frames, err = WireCost(10, canbus.PrototypeRates)
	if err != nil || frames != 1 {
		t.Errorf("small message frames = %d, %v", frames, err)
	}
	if _, _, err := WireCost(10000, canbus.PrototypeRates); err == nil {
		t.Error("oversize accepted")
	}
}
