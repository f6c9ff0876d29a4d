package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/canbus"
	"repro/internal/cantp"
)

// -update regenerates the committed relay-counter golden file.
var update = flag.Bool("update", false, "rewrite golden testdata files")

const relayCountersGolden = "testdata/relay_counters.golden"

// relayCounters runs a lossy relay the way the fabric-relay benchmark
// workload does and renders every simulated counter it moves, one
// line per bus, gateway and endpoint, plus the final clock. Eight
// initiator/responder pairs sit at the two ends of a three-segment
// chain; every bus drops 1% and corrupts 0.5% of frames, and both
// gateways store and forward for 50 µs and pace each flow at 600
// frames/s. The pairs take turns: each conversation flushes both ends
// and relays four messages of handshake-like sizes with Link.Deliver,
// and a failed conversation starts over, up to ten attempts.
func relayCounters(t *testing.T) []byte {
	t.Helper()
	const (
		pairs, segments, convs, attempts = 8, 3, 320, 10
		seed                             = 42
	)
	w := NewWorld(nil)
	buses := make([]*canbus.Bus, segments)
	for i := range buses {
		buses[i] = canbus.NewBus(canbus.PrototypeRates)
		buses[i].SetClock(w.Clock)
		buses[i].Impair(canbus.Impairment{Seed: seed, BusID: uint64(i), Drop: 0.01, Corrupt: 0.005})
	}
	fwd, rev := canbus.IDRange(0x100, 0x1FF), canbus.IDRange(0x200, 0x2FF)
	egress := canbus.EgressPolicy{Rate: 600, Queue: 256}
	var gateways []*canbus.Gateway
	for i := 0; i+1 < segments; i++ {
		gw := canbus.NewGateway(fmt.Sprintf("gw%d", i+1), w.Clock)
		lo, hi := buses[i], buses[i+1]
		for _, err := range []error{
			gw.Route(lo, hi, fwd, 50*time.Microsecond),
			gw.Route(hi, lo, rev, 50*time.Microsecond),
			gw.SetEgress(lo, egress),
			gw.SetEgress(hi, egress),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		w.AddGateway(gw)
		gateways = append(gateways, gw)
	}
	var locals, remotes []*Endpoint
	for i := uint32(0); i < pairs; i++ {
		lcfg, rcfg := DefaultConfig(), DefaultConfig()
		lcfg.AcceptID, rcfg.AcceptID = 0x200+i, 0x100+i
		locals = append(locals, NewReliableEndpoint(w, buses[0].Attach(fmt.Sprintf("init-%d", i)), 0x100+i, lcfg))
		remotes = append(remotes, NewReliableEndpoint(w, buses[segments-1].Attach(fmt.Sprintf("resp-%d", i)), 0x200+i, rcfg))
	}
	link := &Link{World: w, MaxResend: 6}

	sizes := []int{134, 246, 98, 40}
	delivered, tries, overflows, failed := 0, 0, 0, 0
	for c := 0; c < convs; c++ {
		local, remote := locals[c%pairs], remotes[c%pairs]
		for attempt := 1; ; attempt++ {
			tries++
			w.Run()
			local.Flush()
			remote.Flush()
			err := func() error {
				for k, n := range sizes {
					src, dst := local, remote
					if k%2 == 1 {
						src, dst = remote, local
					}
					m := Message{CommCode: 1, SessionID: uint16(c%pairs + 1), OpCode: byte(k + 1), Payload: testPayload(n)}
					binary.BigEndian.PutUint32(m.Payload, uint32(c))
					got, err := link.Deliver(src, dst, m)
					if err != nil {
						return err
					}
					if !bytes.Equal(got.Payload, m.Payload) {
						t.Fatalf("conversation %d: message %d delivered corrupted", c, k)
					}
					delivered++
				}
				return nil
			}()
			if err == nil {
				break
			}
			if errors.Is(err, cantp.ErrFlowOverflow) {
				overflows++
			}
			if attempt == attempts {
				failed++
				break
			}
		}
	}

	var out bytes.Buffer
	fmt.Fprintf(&out, "conversations %d attempts %d delivered %d overflow-aborts %d failed %d\n", convs, tries, delivered, overflows, failed)
	fmt.Fprintf(&out, "clock %d\n", int64(w.Clock.Now()))
	for i, b := range buses {
		fmt.Fprintf(&out, "bus%d %+v\n", i, b.Stats())
	}
	for _, g := range gateways {
		fmt.Fprintf(&out, "%s %+v\n", g.Name(), g.Stats())
	}
	for _, side := range []struct {
		name string
		eps  []*Endpoint
	}{{"init", locals}, {"resp", remotes}} {
		for i, e := range side.eps {
			fmt.Fprintf(&out, "%s-%d %+v\n", side.name, i, e.Stats())
			fmt.Fprintf(&out, "%s-%d rx %+v\n", side.name, i, e.ReceiverStats())
		}
	}
	return out.Bytes()
}

// TestRelayCountersGolden pins every simulated counter of a lossy
// eight-pair relay — bus, gateway and endpoint statistics, the
// acceptance filter's FilteredFrames and the buses' Broadcast and
// RxOverflow included — and the final simulated time. A change to how
// the fabric moves frames, or to where they are filtered and counted,
// must leave every line as it is; -update rewrites the file only for
// an intentional change of the simulated behaviour.
func TestRelayCountersGolden(t *testing.T) {
	got := relayCounters(t)
	if *update {
		if err := os.WriteFile(relayCountersGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(relayCountersGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
