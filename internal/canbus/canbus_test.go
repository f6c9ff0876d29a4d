package canbus

import (
	"bytes"
	"math/bits"
	"testing"
	"testing/quick"
	"time"
)

func TestPadToDLC(t *testing.T) {
	cases := map[int]int{
		0: 0, 1: 1, 7: 7, 8: 8, 9: 12, 12: 12, 13: 16,
		17: 20, 25: 32, 33: 48, 49: 64, 64: 64,
	}
	for in, want := range cases {
		got, err := PadToDLC(in)
		if err != nil {
			t.Fatalf("PadToDLC(%d): %v", in, err)
		}
		if got != want {
			t.Errorf("PadToDLC(%d) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []int{-1, 65, 1000} {
		if _, err := PadToDLC(bad); err == nil {
			t.Errorf("PadToDLC(%d) accepted", bad)
		}
	}
}

func TestDLCRoundTrip(t *testing.T) {
	for _, l := range validDataLens {
		code, err := DLCForLen(l)
		if err != nil {
			t.Fatal(err)
		}
		back, err := LenForDLC(code)
		if err != nil {
			t.Fatal(err)
		}
		if back != l {
			t.Errorf("DLC round trip %d -> %d -> %d", l, code, back)
		}
	}
	if _, err := DLCForLen(9); err == nil {
		t.Error("9 is not a valid CAN-FD length")
	}
	if _, err := LenForDLC(16); err == nil {
		t.Error("DLC 16 accepted")
	}
}

func TestFrameValidate(t *testing.T) {
	good := Frame{ID: 0x123, Data: make([]byte, 8)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid frame rejected: %v", err)
	}
	cases := []Frame{
		{ID: 1 << 11, Data: nil},                  // standard ID overflow
		{ID: 1 << 29, Extended: true, Data: nil},  // extended ID overflow
		{ID: 1, Data: make([]byte, 9)},            // invalid DLC length
		{ID: 1, Data: make([]byte, MaxDataLen+1)}, // too long
	}
	for i, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: invalid frame accepted", i)
		}
	}
	ext := Frame{ID: 0x1FFFFFFF, Extended: true, Data: make([]byte, 64)}
	if err := ext.Validate(); err != nil {
		t.Errorf("max extended frame rejected: %v", err)
	}
}

func TestWireBitsMonotonic(t *testing.T) {
	prevTotal := 0
	for _, l := range validDataLens {
		f := Frame{ID: 1, BRS: true, Data: make([]byte, l)}
		nom, dat := f.WireBits()
		if nom <= 0 || dat <= 0 {
			t.Fatalf("len %d: non-positive bit counts %d/%d", l, nom, dat)
		}
		if nom+dat <= prevTotal {
			t.Errorf("len %d: total bits %d not increasing", l, nom+dat)
		}
		prevTotal = nom + dat
	}
}

func TestWireBitsBRS(t *testing.T) {
	// Without BRS all bits run at the nominal rate.
	f := Frame{ID: 1, Data: make([]byte, 16)}
	nom, dat := f.WireBits()
	if dat != 0 {
		t.Error("non-BRS frame reported data-phase bits")
	}
	fBRS := Frame{ID: 1, BRS: true, Data: make([]byte, 16)}
	nom2, dat2 := fBRS.WireBits()
	if nom2+dat2 != nom {
		t.Error("BRS must repartition, not change, the bit count")
	}
	if dat2 == 0 {
		t.Error("BRS frame has no data-phase bits")
	}
	// Extended IDs add arbitration bits.
	fExt := Frame{ID: 1, Extended: true, BRS: true, Data: make([]byte, 16)}
	nomE, _ := fExt.WireBits()
	if nomE <= nom2 {
		t.Error("extended ID did not add arbitration bits")
	}
}

func TestWireTimePrototypeRates(t *testing.T) {
	// A full 64-byte BRS frame at 0.5/2 Mbit/s is on the order of a
	// few hundred microseconds — consistent with the paper's < 1 ms
	// total transfer observation.
	f := Frame{ID: 0x55, BRS: true, Data: make([]byte, 64)}
	wt, err := f.WireTime(PrototypeRates)
	if err != nil {
		t.Fatal(err)
	}
	if wt < 100*time.Microsecond || wt > 1*time.Millisecond {
		t.Errorf("64-byte frame wire time %v outside [100µs, 1ms]", wt)
	}
	// BRS must beat nominal-only for the same frame.
	fSlow := Frame{ID: 0x55, Data: make([]byte, 64)}
	wtSlow, err := fSlow.WireTime(PrototypeRates)
	if err != nil {
		t.Fatal(err)
	}
	if wtSlow <= wt {
		t.Error("bit-rate switch did not reduce wire time")
	}
	if _, err := f.WireTime(BitRates{}); err == nil {
		t.Error("zero rates accepted")
	}
}

func TestBusDelivery(t *testing.T) {
	bus := NewBus(PrototypeRates)
	a := bus.Attach("a")
	b := bus.Attach("b")
	c := bus.Attach("c")

	// 9 bytes is not a valid CAN-FD DLC length; it pads to 12.
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	wt, err := a.Send(Frame{ID: 0x10, BRS: true, Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	if wt <= 0 {
		t.Error("zero wire time")
	}
	// Broadcast: b and c receive, a does not.
	if a.Pending() != 0 {
		t.Error("sender received its own frame")
	}
	for _, n := range []*Node{b, c} {
		f, ok := n.Receive()
		if !ok {
			t.Fatalf("%s: no frame", n.Name())
		}
		// Payload padded to DLC length 12.
		if len(f.Data) != 12 {
			t.Errorf("%s: payload length %d, want 12 (padded)", n.Name(), len(f.Data))
		}
		for i, v := range payload {
			if f.Data[i] != v {
				t.Errorf("%s: payload byte %d corrupted", n.Name(), i)
			}
		}
	}

	stats := bus.Stats()
	if stats.Frames != 1 || stats.Bytes != 9 || stats.PadBytes != 3 || stats.Broadcast != 2 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.WireTime != wt {
		t.Error("bus wire time does not match send result")
	}
}

func TestBusReceiveOrdering(t *testing.T) {
	bus := NewBus(PrototypeRates)
	a := bus.Attach("a")
	b := bus.Attach("b")
	for i := 0; i < 5; i++ {
		if _, err := a.Send(Frame{ID: 0x20, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		f, ok := b.Receive()
		if !ok || f.Data[0] != byte(i) {
			t.Fatalf("frame %d out of order", i)
		}
	}
	if _, ok := b.Receive(); ok {
		t.Error("phantom frame")
	}
}

// TestReceiverCopiesArePrivate: every delivered copy owns its bytes.
// With duplication and corruption forced, three receivers get two
// copies each and a tap one more; scribbling over one copy, and
// appending to it, leaves every other copy and the sender's slice as
// they were.
func TestReceiverCopiesArePrivate(t *testing.T) {
	bus := NewBus(PrototypeRates)
	bus.Impair(Impairment{Seed: 3, Duplicate: 1, Corrupt: 1})
	src := bus.Attach("src")
	rxs := []*Node{bus.Attach("r0"), bus.Attach("r1"), bus.Attach("r2")}
	tap := bus.Tap("tap")
	sent := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	orig := bytes.Clone(sent)
	if _, err := src.Send(Frame{ID: 0x123, Data: sent}); err != nil {
		t.Fatal(err)
	}
	drain := func(n *Node, want int) [][]byte {
		var out [][]byte
		for {
			f, ok := n.Receive()
			if !ok {
				break
			}
			out = append(out, f.Data)
		}
		if len(out) != want {
			t.Fatalf("%s received %d copies, want %d", n.Name(), len(out), want)
		}
		return out
	}
	copies := make([][][]byte, len(rxs))
	for i, n := range rxs {
		copies[i] = drain(n, 2)
		for _, c := range copies[i] {
			if len(c) != cap(c) {
				t.Errorf("%s: copy has len %d but cap %d", n.Name(), len(c), cap(c))
			}
		}
	}
	tapped := drain(tap, 2)

	want := bytes.Clone(copies[0][0])
	flipped := 0
	for i := range want {
		flipped += bits.OnesCount8(want[i] ^ orig[i])
	}
	if flipped != 1 {
		t.Fatalf("delivered payload differs from the sent one in %d bits, want 1", flipped)
	}

	victim := copies[0][0]
	for i := range victim {
		victim[i] = 0xFF
	}
	if grown := append(victim, 0xAA, 0xAA, 0xAA, 0xAA); len(grown) != len(want)+4 {
		t.Fatalf("append grew the copy to %d bytes", len(grown))
	}

	if !bytes.Equal(sent, orig) {
		t.Errorf("sender's slice changed to %x", sent)
	}
	others := append([][]byte{copies[0][1]}, tapped...)
	for _, cs := range copies[1:] {
		others = append(others, cs...)
	}
	for i, c := range others {
		if !bytes.Equal(c, want) {
			t.Errorf("copy %d reads %x after another receiver's copy was overwritten, want %x", i, c, want)
		}
	}
}

func TestDetachedNode(t *testing.T) {
	n := &Node{}
	if _, err := n.Send(Frame{ID: 1}); err == nil {
		t.Error("detached node send accepted")
	}
}

func TestSendRejectsInvalidFrames(t *testing.T) {
	bus := NewBus(PrototypeRates)
	a := bus.Attach("a")
	if _, err := a.Send(Frame{ID: 1 << 12, Data: nil}); err == nil {
		t.Error("invalid ID accepted")
	}
	if _, err := a.Send(Frame{ID: 1, Data: make([]byte, 100)}); err == nil {
		t.Error("oversize payload accepted")
	}
}

// TestQuickWireTimePositive: every legal frame has positive wire time
// and BRS never makes it slower.
func TestQuickWireTimePositive(t *testing.T) {
	f := func(idSeed uint32, lenSeed uint8) bool {
		l := int(lenSeed) % (MaxDataLen + 1)
		padded, err := PadToDLC(l)
		if err != nil {
			return false
		}
		fr := Frame{ID: idSeed % (1 << 11), Data: make([]byte, padded)}
		slow, err1 := fr.WireTime(PrototypeRates)
		fr.BRS = true
		fast, err2 := fr.WireTime(PrototypeRates)
		return err1 == nil && err2 == nil && fast > 0 && fast <= slow
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
