package canbus

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// scanDeadline computes NextDeadline by brute force, the way it was
// computed before the gateway kept its release time: a full scan of
// every up port's flows under the gateway's lock, each head frame's
// release tag clamped to a shared-capacity port's next rate slot.
func scanDeadline(g *Gateway) time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	var min time.Duration
	for _, p := range g.ports {
		if p.down {
			continue
		}
		for _, fl := range p.flows {
			if fl.queue.len() == 0 {
				continue
			}
			due := fl.queue.front().due
			if p.shared() && p.nextTx > due {
				due = p.nextTx
			}
			if min == 0 || due < min {
				min = due
			}
		}
	}
	return min
}

// scanIdle reports by brute force whether a Pump would move nothing:
// no port node holds a frame, and drainEgress's first pass would find
// no frame due on any up port.
func scanIdle(g *Gateway) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.clock.Now()
	for _, p := range g.ports {
		if p.node.Pending() > 0 {
			return false
		}
		if p.down || (p.shared() && p.nextTx > now) {
			continue
		}
		for _, fl := range p.flows {
			if fl.queue.len() > 0 && fl.queue.front().due <= now {
				return false
			}
		}
	}
	return true
}

// releasePolicies are the egress policies the property test switches
// between: a port with store latency only (the routes carry latency),
// per-flow rate limits with and without a queue bound, and shared
// capacity with and without one.
var releasePolicies = []EgressPolicy{
	{},
	{Rate: 4000, Queue: 3},
	{Rate: 2500},
	{Rate: 5000, Queue: 4, Shared: true},
	{Rate: 2000, Shared: true},
}

// TestKeptReleaseMatchesScan drives a two-port gateway through random
// operations — frames in both directions and on an unrouted
// identifier, pumps, clock advances, SetLinkUp flips and SetEgress
// changes while a backlog is queued — and after every one requires
// NextDeadline to equal the brute-force scan and the lock-free idle
// check to agree with a brute-force one. A Pump on an idle gateway
// must return 0 and leave Stats and the clock unchanged; on a busy
// one it must move something. The clock starts past 0, so every
// release tag is positive and the scan's 0-means-none is unambiguous.
func TestKeptReleaseMatchesScan(t *testing.T) {
	const ops = 600
	var covered struct {
		perFlow, shared, latencyOnly, egressWithBacklog, flips, idlePumps int
	}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := NewClock()
		clock.Advance(time.Millisecond)
		busA, busB := NewBus(PrototypeRates), NewBus(PrototypeRates)
		busA.SetClock(clock)
		busB.SetClock(clock)
		gw := NewGateway("gw", clock)
		if err := gw.Route(busA, busB, IDRange(0x100, 0x1FF), 50*time.Microsecond); err != nil {
			t.Fatal(err)
		}
		if err := gw.Route(busB, busA, IDRange(0x200, 0x2FF), 120*time.Microsecond); err != nil {
			t.Fatal(err)
		}
		buses := []*Bus{busA, busB}
		nodes := []*Node{busA.Attach("a"), busB.Attach("b")}
		for _, b := range buses {
			if err := gw.SetEgress(b, releasePolicies[rng.Intn(len(releasePolicies))]); err != nil {
				t.Fatal(err)
			}
		}

		for op := 0; op < ops; op++ {
			switch k := rng.Intn(10); {
			case k < 4: // a burst of frames from one side
				side := rng.Intn(2)
				for n := 1 + rng.Intn(4); n > 0; n-- {
					id := uint32(0x100*(side+1)) + uint32(rng.Intn(4))
					if rng.Intn(8) == 0 {
						id = 0x300 // routed nowhere: Filtered
					}
					if _, err := nodes[side].Send(Frame{ID: id, BRS: true, Data: []byte{byte(op), byte(n)}}); err != nil {
						t.Fatal(err)
					}
				}
			case k < 7:
				idle := scanIdle(gw)
				st, now := gw.Stats(), clock.Now()
				moved := gw.Pump()
				if idle && (moved != 0 || gw.Stats() != st || clock.Now() != now) {
					t.Fatalf("seed %d op %d: idle Pump moved %d, stats %+v -> %+v, clock %v -> %v",
						seed, op, moved, st, gw.Stats(), now, clock.Now())
				}
				if !idle && moved == 0 {
					t.Fatalf("seed %d op %d: Pump moved nothing with work pending", seed, op)
				}
				if idle {
					covered.idlePumps++
				}
			case k < 8: // advance the clock, often exactly to the next release
				if dl := gw.NextDeadline(); dl > 0 && rng.Intn(2) == 0 {
					clock.AdvanceTo(dl)
				} else {
					clock.Advance(time.Duration(rng.Intn(400)) * time.Microsecond)
				}
			case k < 9:
				if err := gw.SetLinkUp(buses[rng.Intn(2)], rng.Intn(3) > 0); err != nil {
					t.Fatal(err)
				}
				covered.flips++
			default:
				b := buses[rng.Intn(2)]
				if gw.EgressBacklog(b) > 0 {
					covered.egressWithBacklog++
				}
				if err := gw.SetEgress(b, releasePolicies[rng.Intn(len(releasePolicies))]); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range nodes {
				for {
					if _, ok := n.Receive(); !ok {
						break
					}
				}
			}

			if got, want := gw.NextDeadline(), scanDeadline(gw); got != want {
				t.Fatalf("seed %d op %d: NextDeadline %v, scan %v", seed, op, got, want)
			}
			if got, want := gw.idle(), scanIdle(gw); got != want {
				t.Fatalf("seed %d op %d: idle %v, scan %v", seed, op, got, want)
			}
			gw.mu.Lock()
			for _, p := range gw.ports {
				if p.scan() == noRelease {
					continue
				}
				switch {
				case p.shared():
					covered.shared++
				case p.policy.limited():
					covered.perFlow++
				default:
					covered.latencyOnly++
				}
			}
			gw.mu.Unlock()
		}
	}
	t.Logf("ops with a backlog: %d per-flow, %d shared, %d latency-only; %d SetEgress with a backlog, %d link flips, %d idle pumps",
		covered.perFlow, covered.shared, covered.latencyOnly, covered.egressWithBacklog, covered.flips, covered.idlePumps)
	if covered.perFlow == 0 || covered.shared == 0 || covered.latencyOnly == 0 ||
		covered.egressWithBacklog == 0 || covered.flips == 0 || covered.idlePumps == 0 {
		t.Fatalf("the random operations missed a case: %+v", covered)
	}
}

// TestGatewayConcurrentPumps: two senders feed a rate-limited,
// latency-charging gateway while two goroutines pump it and step the
// clock to its deadlines and a third attaches ports and flips a link
// — so the lock-free idle check and NextDeadline race every schedule
// change. Once all stop, the gateway is driven to quiescence: every
// frame is forwarded exactly once, in order within its identifier.
// Run under -race it checks the published node list and the kept
// release time.
func TestGatewayConcurrentPumps(t *testing.T) {
	const perSender = 400
	clock := NewClock()
	busA, busB := NewBus(PrototypeRates), NewBus(PrototypeRates)
	busA.SetClock(clock)
	busB.SetClock(clock)
	gw := NewGateway("gw", clock)
	if err := gw.Route(busA, busB, IDRange(0x100, 0x1FF), 30*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := gw.SetEgress(busB, EgressPolicy{Rate: 20000}); err != nil {
		t.Fatal(err)
	}
	dst := busB.Attach("dst")
	dst.SetRxLimit(0)

	var senders, helpers sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < 2; s++ {
		src := busA.Attach("src")
		senders.Add(1)
		go func(id uint32) {
			defer senders.Done()
			for i := 0; i < perSender; i++ {
				data := make([]byte, 4)
				binary.LittleEndian.PutUint32(data, uint32(i))
				if _, err := src.Send(Frame{ID: id, BRS: true, Data: data}); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint32(0x100 + s))
	}
	for p := 0; p < 2; p++ {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if gw.Pump() == 0 {
					clock.AdvanceTo(gw.NextDeadline())
				}
			}
		}()
	}
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		for i := 0; i < 50; i++ {
			// Each spare bus attaches a port, republishing the node list.
			spare := NewBus(PrototypeRates)
			if err := gw.SetEgress(spare, EgressPolicy{}); err != nil {
				t.Error(err)
				return
			}
			if err := gw.SetLinkUp(spare, false); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	senders.Wait()
	close(stop)
	helpers.Wait()
	driveAll(clock, gw)

	if st := gw.Stats(); st.Forwarded != 2*perSender || st.ForwardFailed != 0 || st.EgressDropped != 0 {
		t.Fatalf("stats %+v, want %d forwarded and nothing lost", st, 2*perSender)
	}
	next := map[uint32]uint32{}
	for n := 0; n < 2*perSender; n++ {
		f, ok := dst.Receive()
		if !ok {
			t.Fatalf("dst received %d frames, want %d", n, 2*perSender)
		}
		if seq := binary.LittleEndian.Uint32(f.Data); seq != next[f.ID] {
			t.Fatalf("frame %d of 0x%X arrived as number %d", seq, f.ID, next[f.ID])
		}
		next[f.ID]++
	}
	if gw.NextDeadline() != 0 || !gw.idle() {
		t.Fatalf("quiescent gateway: NextDeadline %v, idle %v", gw.NextDeadline(), gw.idle())
	}
}
