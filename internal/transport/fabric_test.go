package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/canbus"
)

// fabricChain builds a lossless three-segment chain: two gateways with
// 50 µs store-and-forward latency and the given egress policy on
// every port, eight initiators on the first segment and eight
// responders on the last, so every frame fans out to a full segment.
// It returns a link and the first pair.
func fabricChain(tb testing.TB, egress canbus.EgressPolicy) (link *Link, src, dst *Endpoint) {
	tb.Helper()
	w := NewWorld(nil)
	buses := make([]*canbus.Bus, 3)
	for i := range buses {
		buses[i] = canbus.NewBus(canbus.PrototypeRates)
		buses[i].SetClock(w.Clock)
	}
	fwd, rev := canbus.IDRange(0x100, 0x1FF), canbus.IDRange(0x200, 0x2FF)
	for i := 0; i+1 < len(buses); i++ {
		gw := canbus.NewGateway(fmt.Sprintf("gw%d", i+1), w.Clock)
		if err := gw.Route(buses[i], buses[i+1], fwd, 50*time.Microsecond); err != nil {
			tb.Fatal(err)
		}
		if err := gw.Route(buses[i+1], buses[i], rev, 50*time.Microsecond); err != nil {
			tb.Fatal(err)
		}
		for _, b := range buses[i : i+2] {
			if err := gw.SetEgress(b, egress); err != nil {
				tb.Fatal(err)
			}
		}
		w.AddGateway(gw)
	}
	for i := uint32(0); i < 8; i++ {
		icfg, rcfg := DefaultConfig(), DefaultConfig()
		icfg.AcceptID, rcfg.AcceptID = 0x200+i, 0x100+i
		init := NewReliableEndpoint(w, buses[0].Attach(fmt.Sprintf("init-%d", i)), 0x100+i, icfg)
		resp := NewReliableEndpoint(w, buses[2].Attach(fmt.Sprintf("resp-%d", i)), 0x200+i, rcfg)
		if i == 0 {
			src, dst = init, resp
		}
	}
	return &Link{World: w}, src, dst
}

// deliverDistinct returns a function that delivers one 200 B message
// across fabricChain, a different message on every call: a reliable
// endpoint drops a message byte-equal to the one before it as a
// duplicate, so repeating one message would never arrive.
func deliverDistinct(tb testing.TB, egress canbus.EgressPolicy) func() {
	link, src, dst := fabricChain(tb, egress)
	m := Message{CommCode: 1, SessionID: 7, OpCode: 1, Payload: testPayload(200)}
	var seq uint64
	return func() {
		seq++
		binary.LittleEndian.PutUint64(m.Payload, seq)
		got, err := link.Deliver(src, dst, m)
		if err != nil {
			tb.Fatal(err)
		}
		if !bytes.Equal(got.Payload, m.Payload) {
			tb.Fatal("delivered payload differs from the sent one")
		}
	}
}

// BenchmarkFabricDeliver times one lossless 200 B Deliver across
// fabricChain with no egress policy: every frame leaves a gateway
// 50 µs after it arrived.
func BenchmarkFabricDeliver(b *testing.B) {
	benchmarkDeliver(b, canbus.EgressPolicy{})
}

// BenchmarkFabricDeliverGated is BenchmarkFabricDeliver behind the
// gateway policy of the layered benchmark's fabric-relay workload:
// each flow paced at 600 frames/s with a queue of 256, still lossless,
// so every delivery succeeds and the world steps from one release to
// the next while most gateways and endpoints sit idle.
func BenchmarkFabricDeliverGated(b *testing.B) {
	benchmarkDeliver(b, canbus.EgressPolicy{Rate: 600, Queue: 256})
}

func benchmarkDeliver(b *testing.B, egress canbus.EgressPolicy) {
	deliver := deliverDistinct(b, egress)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deliver()
	}
}

// deliverAllocBudget is the heap-allocation ceiling of one lossless
// 200 B Deliver across fabricChain, enforced by CI next to the crypto
// budgets. A return to a payload copy per receiver, or to receive
// queues that reallocate as they drain (177 allocs), fails it.
const deliverAllocBudget = 34

func TestDeliverAllocBudget(t *testing.T) {
	got := testing.AllocsPerRun(100, deliverDistinct(t, canbus.EgressPolicy{}))
	t.Logf("200 B Deliver over 3 segments: %.0f allocs (budget %d)", got, deliverAllocBudget)
	if got > deliverAllocBudget {
		t.Fatalf("200 B Deliver allocates %.0f, budget %d", got, deliverAllocBudget)
	}
}

// TestFlushAllocFree gates Flush on an idle endpoint at zero heap
// allocations: fleet.NetCarrier.Exchange flushes both ends before
// every handshake attempt, and the receiver is reset in place.
func TestFlushAllocFree(t *testing.T) {
	a, _, _ := newPair(t)
	if got := testing.AllocsPerRun(100, a.Flush); got != 0 {
		t.Fatalf("Flush on an idle endpoint allocates %.0f, want 0", got)
	}
}
