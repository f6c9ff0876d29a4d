package hwmodel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
)

// Model is a calibrated device/cost model ready to replay protocol
// traces.
type Model struct {
	Cost    *CostModel
	devices []Device

	// referenceTraces caches one trace per protocol, generated with a
	// deterministic RNG. Protocol traces are data-independent (all
	// message sizes are fixed), so one trace per protocol suffices.
	referenceTraces map[string]*core.Trace
}

// New builds the calibrated model: it provisions a reference device
// pair, runs every protocol once to obtain reference traces, and sets
// each device's point-multiplication cost so the modelled S-ECDSA time
// equals the paper's measured S-ECDSA row.
func New() (*Model, error) {
	m := &Model{Cost: DefaultCostModel(), referenceTraces: map[string]*core.Trace{}}

	net, err := core.NewNetwork(ec.P256(), detrand.NewReader(42))
	if err != nil {
		return nil, fmt.Errorf("hwmodel: calibration network: %w", err)
	}
	a, b, err := net.Pair("ref-alice", "ref-bob")
	if err != nil {
		return nil, fmt.Errorf("hwmodel: calibration parties: %w", err)
	}
	for _, p := range core.Protocols() {
		res, err := p.Run(a, b)
		if err != nil {
			return nil, fmt.Errorf("hwmodel: reference run %s: %w", p.Name(), err)
		}
		m.referenceTraces[p.Name()] = res.Trace
	}

	// Calibrate: paper S-ECDSA ms = unitsOf(S-ECDSA) × PointMulMS.
	secdsaUnits := m.traceTotalUnits(m.referenceTraces["S-ECDSA"])
	if secdsaUnits <= 0 {
		return nil, fmt.Errorf("hwmodel: degenerate calibration units %f", secdsaUnits)
	}
	m.devices = make([]Device, len(deviceSpecs))
	copy(m.devices, deviceSpecs)
	for i := range m.devices {
		paperMS, ok := paperSECDSA[m.devices[i].Name]
		if !ok {
			return nil, fmt.Errorf("hwmodel: no calibration value for %s", m.devices[i].Name)
		}
		m.devices[i].PointMulMS = paperMS / secdsaUnits
	}
	return m, nil
}

// Devices returns the calibrated device list in Table I column order.
func (m *Model) Devices() []Device { return m.devices }

// Device resolves a device by name.
func (m *Model) Device(name string) (Device, error) {
	return DeviceByName(m.devices, name)
}

// ReferenceTrace returns the cached trace for a protocol name.
func (m *Model) ReferenceTrace(protocol string) (*core.Trace, error) {
	t, ok := m.referenceTraces[protocol]
	if !ok {
		return nil, fmt.Errorf("hwmodel: no reference trace for %q", protocol)
	}
	return t, nil
}

// traceTotalUnits sums the whole trace in point-mult units (both
// parties, all phases) — the τ_T of equation (5) in units.
func (m *Model) traceTotalUnits(t *core.Trace) float64 {
	total := 0.0
	for _, e := range t.Events {
		total += m.Cost.EventUnits(e)
	}
	return total
}

// PhaseMS returns the per-party, per-base-phase times of a trace on a
// device, in milliseconds — the quantities plotted in Fig. 3. Sub-
// phases (Op2a/Op2b) are folded into Op2, in core.RawPhases order.
func (m *Model) PhaseMS(t *core.Trace, dev Device) map[core.PartyRole]map[core.Phase]float64 {
	out := map[core.PartyRole]map[core.Phase]float64{}
	for role, byPhase := range m.RawPhaseMS(t, dev) {
		out[role] = map[core.Phase]float64{}
		for _, phase := range core.RawPhases() {
			if ms, ok := byPhase[phase]; ok {
				out[role][phase.Base()] += ms
			}
		}
	}
	return out
}

// RawPhaseMS is PhaseMS without sub-phase folding, for the
// optimization scheduler.
func (m *Model) RawPhaseMS(t *core.Trace, dev Device) map[core.PartyRole]map[core.Phase]float64 {
	units := m.Cost.TraceUnits(t)
	out := map[core.PartyRole]map[core.Phase]float64{}
	for role, byPhase := range units {
		out[role] = map[core.Phase]float64{}
		for phase, u := range byPhase {
			out[role][phase] += u * dev.PointMulMS
		}
	}
	return out
}

// SequentialMS evaluates equation (5): the conventional protocol time
// is the sum of both devices' operation times (the exchange is a
// strict ping-pong, nothing overlaps). It sums A's phases, then B's,
// each in core.RawPhases order.
func (m *Model) SequentialMS(t *core.Trace, devA, devB Device) float64 {
	pa := m.RawPhaseMS(t, devA)[core.RoleA]
	pb := m.RawPhaseMS(t, devB)[core.RoleB]
	total := 0.0
	for _, byPhase := range []map[core.Phase]float64{pa, pb} {
		for _, phase := range core.RawPhases() {
			total += byPhase[phase]
		}
	}
	return total
}

// OptimizedMS evaluates the pipelined schedules of §IV-C. The
// overlapped set holds the (raw) phases executed concurrently by the
// two parties; for each overlapped phase only the slower side
// contributes beyond the faster one — equation (6)'s
// |T_OpAx − T_OpBx| term: the faster device's share is absorbed
// entirely, i.e. the phase costs max(T_A, T_B).
func (m *Model) OptimizedMS(t *core.Trace, devA, devB Device, overlapped map[core.Phase]bool) float64 {
	pa := m.RawPhaseMS(t, devA)[core.RoleA]
	pb := m.RawPhaseMS(t, devB)[core.RoleB]
	total := 0.0
	for _, phase := range core.RawPhases() {
		ta := pa[phase]
		tb := pb[phase]
		if overlapped[phase] {
			if ta > tb {
				total += ta
			} else {
				total += tb
			}
		} else {
			total += ta + tb
		}
	}
	return total
}

// OverlapSet returns the raw phases that run concurrently under an
// STS optimization level:
//
//   - Opt. I front-loads the initiator certificate, so the
//     certificate-dependent public-key reconstruction (Op2b) of the
//     two parties overlaps (equation (7); the premaster share Op2a
//     was never blocked on message order).
//   - Opt. II additionally overlaps the premaster derivation and the
//     authentication-response generation (Op2a and Op3, equation (8)).
func OverlapSet(opt core.STSOptimization) map[core.Phase]bool {
	switch opt {
	case core.OptI:
		return map[core.Phase]bool{core.PhaseOp2PubKey: true}
	case core.OptII:
		return map[core.Phase]bool{
			core.PhaseOp2PubKey:    true,
			core.PhaseOp2Premaster: true,
			core.PhaseOp3:          true,
		}
	default:
		return nil
	}
}

// ProtocolMS prices one protocol on a device pair, applying the
// correct schedule for the STS optimization variants.
func (m *Model) ProtocolMS(p core.Protocol, devA, devB Device) (float64, error) {
	t, err := m.ReferenceTrace(p.Name())
	if err != nil {
		return 0, err
	}
	if sts, ok := p.(*core.STS); ok && sts.Optimization() != core.OptNone {
		return m.OptimizedMS(t, devA, devB, OverlapSet(sts.Optimization())), nil
	}
	return m.SequentialMS(t, devA, devB), nil
}

// Table1 computes the full modelled Table I: protocol × device, both
// endpoints on the same device type (as in the paper's setup).
func (m *Model) Table1() (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	for _, p := range core.Protocols() {
		row := map[string]float64{}
		for _, dev := range m.devices {
			ms, err := m.ProtocolMS(p, dev, dev)
			if err != nil {
				return nil, err
			}
			row[dev.Name] = ms
		}
		out[p.Name()] = row
	}
	return out, nil
}
