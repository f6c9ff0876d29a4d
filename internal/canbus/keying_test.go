package canbus

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/detrand"
)

// faultSig names one fault decision independently of when it happened:
// the content key inputs plus the decision kind. Timestamps are
// excluded on purpose — interleaving shifts when a fault lands, never
// whether it lands.
type faultSig struct {
	bus  uint64
	id   uint32
	ext  bool
	occ  uint64
	kind FaultKind
}

// collectFaults transmits the given frame sequence on a freshly armed
// bus and returns the sorted fault signatures.
func collectFaults(t *testing.T, cfg Impairment, frames []Frame) []faultSig {
	t.Helper()
	bus := NewBus(PrototypeRates)
	bus.Impair(cfg)
	var got []faultSig
	bus.SetFaultTrace(func(ev FaultEvent) {
		got = append(got, faultSig{ev.BusID, ev.FrameID, ev.Extended, ev.Occurrence, ev.Kind})
	})
	src := bus.Attach("src")
	bus.Attach("sink")
	for _, f := range frames {
		if _, err := src.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(got, func(i, j int) bool {
		a, b := got[i], got[j]
		if a.id != b.id {
			return a.id < b.id
		}
		if a.ext != b.ext {
			return b.ext
		}
		if a.occ != b.occ {
			return a.occ < b.occ
		}
		return a.kind < b.kind
	})
	return got
}

// conversationStreams builds several independent frame streams, one
// CAN identifier each, with payloads that differ within and across
// streams — the shape of concurrent ISO-TP conversations sharing a
// segment.
func conversationStreams(streams, perStream int) [][]Frame {
	out := make([][]Frame, streams)
	for s := range out {
		for i := 0; i < perStream; i++ {
			data := []byte{byte(s), byte(i), byte(i >> 8), 0xA5}
			out[s] = append(out[s], Frame{ID: 0x100 + uint32(s), BRS: true, Data: data})
		}
	}
	return out
}

// interleave merges the streams into one transmit order chosen by rng,
// preserving each stream's internal order (the physical guarantee of a
// CAN segment: one transmitter per identifier).
func interleave(rng *rand.Rand, streams [][]Frame) []Frame {
	idx := make([]int, len(streams))
	var out []Frame
	for {
		live := 0
		for s := range streams {
			if idx[s] < len(streams[s]) {
				live++
			}
		}
		if live == 0 {
			return out
		}
		pick := rng.Intn(live)
		for s := range streams {
			if idx[s] >= len(streams[s]) {
				continue
			}
			if pick == 0 {
				out = append(out, streams[s][idx[s]])
				idx[s]++
				break
			}
			pick--
		}
	}
}

// TestImpairmentInterleaveInvariant is the content-keying property:
// with one seed, every interleaving of independent conversations
// produces the identical fault set. Under transmit-order keying this
// fails on the first shuffle.
func TestImpairmentInterleaveInvariant(t *testing.T) {
	cfg := Impairment{Seed: 1234, BusID: 3, Drop: 0.08, Corrupt: 0.05, Duplicate: 0.04, DelayRate: 0.03, Delay: 1}
	streams := conversationStreams(6, 40)

	baseline := collectFaults(t, cfg, interleave(rand.New(rand.NewSource(0)), streams))
	if len(baseline) == 0 {
		t.Fatal("no faults fired — the property run proves nothing")
	}
	for trial := int64(1); trial <= 20; trial++ {
		shuffled := collectFaults(t, cfg, interleave(rand.New(rand.NewSource(trial)), streams))
		if fmt.Sprint(baseline) != fmt.Sprint(shuffled) {
			t.Fatalf("interleaving %d changed the fault set:\nbase %v\ngot  %v", trial, baseline, shuffled)
		}
	}
}

// TestImpairmentOccurrenceIndependence: a retransmitted frame with
// byte-identical content must draw a fresh decision per occurrence —
// a dropped FirstFrame is not dropped forever.
func TestImpairmentOccurrenceIndependence(t *testing.T) {
	bus := NewBus(PrototypeRates)
	bus.Impair(Impairment{Seed: 9, Drop: 0.5})
	src := bus.Attach("src")
	sink := bus.Attach("sink")
	sink.SetRxLimit(0)
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := src.Send(Frame{ID: 0x42, BRS: true, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}}); err != nil {
			t.Fatal(err)
		}
	}
	dropped := bus.Stats().Dropped
	if dropped == 0 || dropped == n {
		t.Fatalf("identical retransmissions share one fate (%d/%d dropped) — occurrence counter not in the key", dropped, n)
	}
	if dropped < n/4 || dropped > 3*n/4 {
		t.Errorf("drop count %d implausible for rate 0.5 over %d identical frames", dropped, n)
	}
}

// TestImpairmentExtendedIDIsItsOwnConversation: a 29-bit extended
// identifier is a different identifier than the equal-valued 11-bit
// one, so the two streams must keep independent occurrence counters —
// their interleaving must not leak into each other's fault decisions.
func TestImpairmentExtendedIDIsItsOwnConversation(t *testing.T) {
	cfg := Impairment{Seed: 99, Drop: 0.15, Corrupt: 0.1}
	var std, ext []Frame
	for i := 0; i < 40; i++ {
		std = append(std, Frame{ID: 0x123, BRS: true, Data: []byte{0, byte(i)}})
		ext = append(ext, Frame{ID: 0x123, Extended: true, BRS: true, Data: []byte{1, byte(i)}})
	}
	streams := [][]Frame{std, ext}
	baseline := collectFaults(t, cfg, interleave(rand.New(rand.NewSource(0)), streams))
	if len(baseline) == 0 {
		t.Fatal("no faults fired")
	}
	for trial := int64(1); trial <= 10; trial++ {
		shuffled := collectFaults(t, cfg, interleave(rand.New(rand.NewSource(trial)), streams))
		if fmt.Sprint(baseline) != fmt.Sprint(shuffled) {
			t.Fatalf("interleaving std/ext conversations with one numeric ID changed the fault set (trial %d)", trial)
		}
	}
}

// TestImpairmentBusIDSaltsTheKey: one profile and one seed on two
// segments must still yield independent fault streams when BusID
// differs.
func TestImpairmentBusIDSaltsTheKey(t *testing.T) {
	frames := interleave(rand.New(rand.NewSource(0)), conversationStreams(4, 50))
	cfg := Impairment{Seed: 77, Drop: 0.1, Corrupt: 0.1}
	cfg.BusID = 0
	a := collectFaults(t, cfg, frames)
	cfg.BusID = 1
	b := collectFaults(t, cfg, frames)
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Error("distinct BusIDs produced identical fault streams")
	}
}

func TestFaultKindStrings(t *testing.T) {
	for kind, want := range map[FaultKind]string{
		FaultDrop: "drop", FaultCorrupt: "corrupt", FaultDuplicate: "duplicate",
		FaultDelay: "delay", FaultKind(99): "unknown",
	} {
		if kind.String() != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", kind, kind, want)
		}
	}
}

func TestClearImpairmentStopsFaults(t *testing.T) {
	bus := NewBus(PrototypeRates)
	bus.Impair(Impairment{Seed: 1, Drop: 1})
	src := bus.Attach("src")
	dst := bus.Attach("dst")
	if _, err := src.Send(Frame{ID: 1, Data: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if dst.Pending() != 0 {
		t.Fatal("full drop delivered a frame")
	}
	bus.ClearImpairment()
	if _, err := src.Send(Frame{ID: 1, Data: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	if dst.Pending() != 1 {
		t.Error("cleared impairment still dropping")
	}
	if bus.Rates() != PrototypeRates {
		t.Error("rates accessor wrong")
	}
}

// TestImpairmentRearmResets: re-arming the same profile resets the
// occurrence counters, so a re-run reproduces the original faults.
func TestImpairmentRearmResets(t *testing.T) {
	cfg := Impairment{Seed: 5, Drop: 0.2, Corrupt: 0.1}
	frames := interleave(rand.New(rand.NewSource(3)), conversationStreams(3, 30))

	bus := NewBus(PrototypeRates)
	var first, second []faultSig
	sink := func(dst *[]faultSig) func(FaultEvent) {
		return func(ev FaultEvent) {
			*dst = append(*dst, faultSig{ev.BusID, ev.FrameID, ev.Extended, ev.Occurrence, ev.Kind})
		}
	}
	src := bus.Attach("src")
	bus.Attach("sink")

	bus.Impair(cfg)
	bus.SetFaultTrace(sink(&first))
	for _, f := range frames {
		if _, err := src.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	bus.Impair(cfg) // re-arm
	bus.SetFaultTrace(sink(&second))
	for _, f := range frames {
		if _, err := src.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("re-armed run diverged:\nfirst  %v\nsecond %v", first, second)
	}
	if len(first) == 0 {
		t.Fatal("no faults fired")
	}
}

// frameKeyBytewise is the reference frame key: the payload absorbed
// one byte at a time into little-endian 64-bit chunks.
func frameKeyBytewise(cfg Impairment, f *Frame, occ uint64) uint64 {
	h := cfg.Seed ^ detrand.Golden
	h = detrand.Mix64(h ^ cfg.BusID)
	h = detrand.Mix64(h ^ wireID(f))
	h = detrand.Mix64(h ^ occ)
	var chunk uint64
	var nb uint
	for _, b := range f.Data {
		chunk |= uint64(b) << nb
		nb += 8
		if nb == 64 {
			h = detrand.Mix64(h ^ chunk)
			chunk, nb = 0, 0
		}
	}
	if nb > 0 {
		h = detrand.Mix64(h ^ chunk)
	}
	return detrand.Mix64(h ^ uint64(len(f.Data)))
}

// TestFrameKeyMatchesBytewise pins frameKey to the byte-at-a-time
// reference for every payload length up to 64, both identifier
// formats, small and huge occurrence indices, and two seeds on two
// buses: every fault decision of a seeded run depends on these keys.
func TestFrameKeyMatchesBytewise(t *testing.T) {
	payload := make([]byte, MaxDataLen)
	for i := range payload {
		payload[i] = byte(0x5A + 37*i)
	}
	ids := []Frame{{ID: 0x7E5}, {ID: 0x1ABCDEF, Extended: true}}
	for _, seed := range []uint64{42, 0xDEADBEEFCAFE} {
		for _, busID := range []uint64{0, 3} {
			cfg := Impairment{Seed: seed, BusID: busID}
			s := newImpairState(cfg)
			for _, id := range ids {
				for n := 0; n <= MaxDataLen; n++ {
					f := id
					f.Data = payload[:n]
					for _, occ := range []uint64{0, 1, 1<<32 + 3} {
						if got, want := s.frameKey(&f, occ), frameKeyBytewise(cfg, &f, occ); got != want {
							t.Fatalf("seed %#x bus %d id %#x ext %v len %d occ %d: key %#x, want %#x",
								seed, busID, f.ID, f.Extended, n, occ, got, want)
						}
					}
				}
			}
		}
	}
}
