// Package prototype reproduces the paper's §V-C evaluation: a secure
// session establishment between a battery management system (BMS)
// controller and an electric vehicle charging controller (EVCC), both
// modelled as S32K144 microcontrollers, communicating over CAN-FD with
// ISO-TP fragmentation (the test suite of Figures 5–7).
//
// The output is the Fig. 7 timeline: alternating processing segments
// (priced by the hardware model) and wire segments (priced by the
// CAN-FD bit-accounting of the transport substrate), for both the STS
// and the S-ECDSA protocol.
package prototype

import (
	"fmt"
	"time"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/hwmodel"
	"repro/internal/transport"
)

// SegmentKind distinguishes processing from wire time.
type SegmentKind string

const (
	// KindProcessing — cryptographic/device work.
	KindProcessing SegmentKind = "proc"
	// KindWire — CAN-FD transfer.
	KindWire SegmentKind = "wire"
)

// Segment is one interval of the Fig. 7 timeline.
type Segment struct {
	Device   string // "EVCC" (initiator) or "BMS" (responder); "bus" for wire
	Label    string
	Kind     SegmentKind
	Duration time.Duration
}

// Timeline is a full prototype session run.
type Timeline struct {
	Protocol   string
	Segments   []Segment
	Processing time.Duration
	Wire       time.Duration
	Total      time.Duration
	BusStats   canbus.Stats
}

// stepPhases maps each transcript step to the trace phases whose
// processing precedes its transmission, per protocol family. This is
// the schedule of Fig. 7: e.g. the STS responder computes its XG,
// premaster and signature before message B1 leaves.
func stepPhases(protocol string) (map[string][]core.Phase, map[string][]core.Phase, error) {
	switch protocol {
	case "STS":
		return map[string][]core.Phase{ // initiator (A / EVCC)
				"A1": {core.PhaseOp1},
				"A2": {core.PhaseOp2PubKey, core.PhaseOp2Premaster, core.PhaseOp4, core.PhaseOp3},
			}, map[string][]core.Phase{ // responder (B / BMS)
				"B1": {core.PhaseOp1, core.PhaseOp2Premaster, core.PhaseOp3},
				"B2": {core.PhaseOp2PubKey, core.PhaseOp4},
			}, nil
	case "S-ECDSA":
		return map[string][]core.Phase{
				"A1": {core.PhaseOp1},
				"A2": {core.PhaseOp2, core.PhaseOp4, core.PhaseOp3},
			}, map[string][]core.Phase{
				"B1": {core.PhaseOp1, core.PhaseOp3},
				"B2": {core.PhaseOp2, core.PhaseOp4},
			}, nil
	}
	return nil, nil, fmt.Errorf("prototype: no Fig. 7 schedule for %q", protocol)
}

// phaseLabel names the processing segments like Fig. 7 does.
var phaseLabel = map[string]map[core.Phase]string{
	"STS": {
		core.PhaseOp1:          "XG gen.",
		core.PhaseOp2Premaster: "Derive key",
		core.PhaseOp2PubKey:    "Calc. PubK",
		core.PhaseOp3:          "Create & enc. sign.",
		core.PhaseOp4:          "Verify resp.",
	},
	"S-ECDSA": {
		core.PhaseOp1: "Nonce gen.",
		core.PhaseOp2: "Calc. keys",
		core.PhaseOp3: "Sign. gen.",
		core.PhaseOp4: "Verify",
	},
}

// Run executes one prototype session: the protocol's real cryptography
// over a simulated CAN-FD bus, with processing priced on the named
// device.
func Run(p core.Protocol, model *hwmodel.Model, deviceName string) (*Timeline, error) {
	dev, err := model.Device(deviceName)
	if err != nil {
		return nil, err
	}
	initPhases, respPhases, err := stepPhases(p.Name())
	if err != nil {
		return nil, err
	}

	// Fresh provisioned parties (stage 1–2 of Fig. 1 handled by the
	// gateway/CA) on the paper's secp256r1.
	net, err := core.NewNetwork(ec.P256(), nil)
	if err != nil {
		return nil, err
	}
	evcc, bms, err := net.Pair("evcc-controller", "bms-controller")
	if err != nil {
		return nil, err
	}

	// Run the protocol to obtain transcript and trace.
	res, err := p.Run(evcc, bms)
	if err != nil {
		return nil, fmt.Errorf("prototype: session: %w", err)
	}
	raw := model.RawPhaseMS(res.Trace, dev)

	// CAN-FD bus with the prototype rates of §V-C. A zero Config adds
	// no CRC trailer, so the frames are the prototype's.
	w := transport.NewWorld(nil)
	bus := canbus.NewBus(canbus.PrototypeRates)
	bus.SetClock(w.Clock)
	epEVCC := transport.NewReliableEndpoint(w, bus.Attach("evcc"), 0x101, transport.Config{})
	epBMS := transport.NewReliableEndpoint(w, bus.Attach("bms"), 0x102, transport.Config{})

	tl := &Timeline{Protocol: p.Name()}
	labels := phaseLabel[p.Name()]

	addProc := func(device string, role core.PartyRole, phases []core.Phase) {
		for _, ph := range phases {
			ms := raw[role][ph]
			if ms <= 0 {
				continue
			}
			d := time.Duration(ms * float64(time.Millisecond))
			tl.Segments = append(tl.Segments, Segment{
				Device: device, Label: labels[ph], Kind: KindProcessing, Duration: d,
			})
			tl.Processing += d
		}
	}

	for i, msg := range res.Transcript {
		var (
			sender   *transport.Endpoint
			receiver *transport.Endpoint
			device   string
		)
		if msg.From == core.RoleA {
			sender, receiver, device = epEVCC, epBMS, "EVCC"
			addProc(device, core.RoleA, initPhases[msg.Label])
		} else {
			sender, receiver, device = epBMS, epEVCC, "BMS"
			addProc(device, core.RoleB, respPhases[msg.Label])
		}

		// Transmit the real message bytes over the simulated bus.
		payload := make([]byte, 0, msg.Len())
		for _, f := range msg.Field {
			payload = append(payload, f.Bytes...)
		}
		wt, err := sender.Send(transport.Message{
			CommCode:  1,
			SessionID: 1,
			OpCode:    byte(i + 1),
			Payload:   payload,
		})
		if err != nil {
			return nil, fmt.Errorf("prototype: send %s: %w", msg.Label, err)
		}
		if _, err := receiver.Poll(); err != nil {
			return nil, fmt.Errorf("prototype: receive %s: %w", msg.Label, err)
		}
		tl.Segments = append(tl.Segments, Segment{
			Device: "bus", Label: msg.Label + " transfer", Kind: KindWire, Duration: wt,
		})
		tl.Wire += wt
	}

	tl.Total = tl.Processing + tl.Wire
	tl.BusStats = bus.Stats()
	return tl, nil
}

// Comparison runs the Fig. 7 experiment: STS vs S-ECDSA on the BMS ↔
// EVCC pair.
type Comparison struct {
	STS    *Timeline
	SECDSA *Timeline
	// IncreasePct is the relative STS cost over S-ECDSA (the paper
	// reports 21.67 %).
	IncreasePct float64
}

// Compare produces the full Fig. 7 comparison on the given device.
func Compare(model *hwmodel.Model, deviceName string) (*Comparison, error) {
	sts, err := Run(core.NewSTS(core.OptNone), model, deviceName)
	if err != nil {
		return nil, err
	}
	secdsa, err := Run(core.NewSECDSA(false), model, deviceName)
	if err != nil {
		return nil, err
	}
	inc := (sts.Total.Seconds() - secdsa.Total.Seconds()) / secdsa.Total.Seconds() * 100
	return &Comparison{STS: sts, SECDSA: secdsa, IncreasePct: inc}, nil
}
