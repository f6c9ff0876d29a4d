package hwmodel

import (
	"slices"

	"repro/internal/core"
)

// CostModel prices trace primitives in units of one P-256 point
// multiplication. Two kinds of entries exist: per-operation weights
// (an ECDSA verify is ~1.3 point multiplications thanks to the
// Strauss–Shamir trick) and per-byte weights for the symmetric
// primitives, whose cost is linear in the data size and three orders
// of magnitude below EC work on every platform in Table I.
type CostModel struct {
	// PerOp maps op-metered primitives to point-mult units per
	// occurrence.
	PerOp map[core.Primitive]float64
	// PerByte maps byte-metered primitives to point-mult units per
	// byte.
	PerByte map[core.Primitive]float64
}

// DefaultCostModel returns the weights used throughout the
// reproduction. The EC weights follow operation counts of the
// underlying algorithms; the symmetric weights approximate embedded
// software implementations (SHA-256 ≈ tens of cycles/byte vs ≈ 10⁷
// cycles per point multiplication).
func DefaultCostModel() *CostModel {
	return &CostModel{
		PerOp: map[core.Primitive]float64{
			core.PrimECBaseMult:     1.0, // micro-ecc has no fixed-base speedup
			core.PrimECPointMult:    1.0,
			core.PrimECCombinedMult: 1.3, // shared doubling chain
			core.PrimECPointAdd:     0.005,
			core.PrimECPointDecode:  0.15, // one modular square root
			core.PrimModInverse:     0.02,
			core.PrimRandScalar:     0.02,
			core.PrimKDF:            0.002, // a handful of HMAC blocks
		},
		PerByte: map[core.Primitive]float64{
			core.PrimHashBytes: 1.2e-5,
			core.PrimMACBytes:  2.4e-5, // HMAC ≈ 2 hash passes + padding
			core.PrimAESBytes:  6e-6,
			core.PrimRandBytes: 2e-6,
		},
	}
}

// EventUnits prices one trace event.
func (m *CostModel) EventUnits(e core.Event) float64 {
	if w, ok := m.PerOp[e.Prim]; ok {
		return w * float64(e.N)
	}
	if w, ok := m.PerByte[e.Prim]; ok {
		return w * float64(e.N)
	}
	return 0
}

// PhaseUnits prices an aggregated phase count map. It sums in
// ascending primitive order, so the float64 result does not depend on
// map iteration order.
func (m *CostModel) PhaseUnits(counts map[core.Primitive]int) float64 {
	prims := make([]core.Primitive, 0, len(counts))
	for prim := range counts {
		prims = append(prims, prim)
	}
	slices.Sort(prims)
	total := 0.0
	for _, prim := range prims {
		total += m.EventUnits(core.Event{Prim: prim, N: counts[prim]})
	}
	return total
}

// TraceUnits prices a full trace per party and phase.
func (m *CostModel) TraceUnits(t *core.Trace) map[core.PartyRole]map[core.Phase]float64 {
	agg := t.Aggregate()
	out := map[core.PartyRole]map[core.Phase]float64{}
	for role, byPhase := range agg {
		out[role] = map[core.Phase]float64{}
		for phase, counts := range byPhase {
			out[role][phase] = m.PhaseUnits(counts)
		}
	}
	return out
}
