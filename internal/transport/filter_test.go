package transport

import (
	"testing"

	"repro/internal/canbus"
)

// TestAcceptFilterFloodAccounting floods a filtered endpoint with more
// frames than its receive bound holds between two drains, mixing its
// own identifier with foreign ones, and replays every frame on a twin
// bus to a plain, unfiltered reference node that the test drains and
// filters itself — the software filter the node's acceptance filter
// replaced. Broadcast, RxOverflow, the node's Overflow and its slots
// in use must match the reference after every flood, FilteredFrames
// must equal the foreign frames the reference drained, and Service
// must report as many frames as the reference drained. Each own frame
// is a distinct single-frame message, so it must surface (or be
// suppressed as a duplicate copy). Duplication on both buses, with one
// seed, sends some frames twice. The last round drains with Flush,
// which must discard the rejected frames uncounted and free their
// slots.
func TestAcceptFilterFloodAccounting(t *testing.T) {
	const (
		own    = 0x101
		limit  = 8
		rounds = 6
		offer  = 3 * limit
	)
	foreign := []uint32{0x102, 0x200, 0x7FF}
	newBus := func() *canbus.Bus {
		b := canbus.NewBus(canbus.PrototypeRates)
		b.SetRxLimit(limit)
		b.Impair(canbus.Impairment{Seed: 5, Duplicate: 0.2})
		return b
	}
	w := NewWorld(nil)
	busF, busR := newBus(), newBus()
	busF.SetClock(w.Clock)
	srcF, srcR := busF.Attach("src"), busR.Attach("src")
	node := busF.Attach("dst")
	cfg := Config{AcceptID: own}
	e := NewReliableEndpoint(w, node, 0x201, cfg)
	ref := busR.Attach("ref")

	seq, ownDrained, foreignDrained := 0, 0, 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < offer; i++ {
			f := canbus.Frame{ID: foreign[(i+r)%len(foreign)]}
			if (i*7+r)%3 == 0 {
				// A classic single frame carrying a distinct message.
				seq++
				msg := Message{CommCode: 1, SessionID: uint16(seq), OpCode: 2, Payload: []byte{byte(seq)}}.Encode()
				f = canbus.Frame{ID: own, Data: append([]byte{byte(len(msg))}, msg...)}
			} else {
				f.Data = []byte{0x30, 0, 0, byte(i)}
			}
			if _, err := srcF.Send(f); err != nil {
				t.Fatal(err)
			}
			if _, err := srcR.Send(f); err != nil {
				t.Fatal(err)
			}
		}

		sf, sr := busF.Stats(), busR.Stats()
		if sf.Broadcast != sr.Broadcast || sf.RxOverflow != sr.RxOverflow || sf.Duplicated != sr.Duplicated {
			t.Fatalf("round %d: filtered bus Broadcast %d, RxOverflow %d, Duplicated %d; reference %d, %d, %d",
				r, sf.Broadcast, sf.RxOverflow, sf.Duplicated, sr.Broadcast, sr.RxOverflow, sr.Duplicated)
		}
		if sf.RxOverflow == 0 {
			t.Fatalf("round %d: the flood never filled the receive queue", r)
		}
		if node.Overflow() != ref.Overflow() {
			t.Fatalf("round %d: node overflow %d, reference %d", r, node.Overflow(), ref.Overflow())
		}
		if node.Pending() != ref.Pending() {
			t.Fatalf("round %d: %d receive-queue slots in use, reference %d", r, node.Pending(), ref.Pending())
		}

		drained, foreignNow := 0, 0
		for {
			f, ok := ref.Receive()
			if !ok {
				break
			}
			drained++
			if f.ID != own {
				foreignNow++
			}
		}
		foreignDrained += foreignNow
		filtered := e.Stats().FilteredFrames
		if r == rounds-1 {
			e.Flush()
			if got := e.Stats().FilteredFrames; got != filtered {
				t.Fatalf("Flush counted %d filtered frames", got-filtered)
			}
			if node.Pending() != 0 {
				t.Fatalf("%d receive-queue slots still in use after Flush", node.Pending())
			}
			continue
		}
		ownDrained += drained - foreignNow
		if got := e.Service(); got != drained {
			t.Fatalf("round %d: Service processed %d frames, the reference drained %d", r, got, drained)
		}
		if got := e.Stats().FilteredFrames; got != foreignDrained {
			t.Fatalf("round %d: FilteredFrames %d, the reference drained %d foreign frames", r, got, foreignDrained)
		}
		if node.Pending() != 0 {
			t.Fatalf("round %d: %d receive-queue slots still in use after Service", r, node.Pending())
		}
		st := e.Stats()
		if st.MessagesReceived+st.DuplicateMessages != ownDrained || st.ProtocolDrops != 0 {
			t.Fatalf("round %d: %d messages and %d duplicates (%d protocol drops) from %d own frames",
				r, st.MessagesReceived, st.DuplicateMessages, st.ProtocolDrops, ownDrained)
		}
	}
}
