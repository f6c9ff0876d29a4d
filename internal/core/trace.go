package core

import "fmt"

// Primitive identifies a class of cryptographic work whose device cost
// the hardware model knows. EC point multiplications dominate every
// protocol in the paper's evaluation; the byte-metered primitives make
// the symmetric baselines (SCIANC, PORAMB) comparable.
type Primitive int

const (
	// PrimECBaseMult is a scalar multiplication of the curve base
	// point (k·G): ephemeral point generation, ECDSA signing.
	PrimECBaseMult Primitive = iota
	// PrimECPointMult is a scalar multiplication of an arbitrary
	// point: ECDH premaster, ECQV public-key reconstruction.
	PrimECPointMult
	// PrimECCombinedMult is the Strauss–Shamir double multiplication
	// u1·G + u2·Q of ECDSA verification (~1.3 point multiplications).
	PrimECCombinedMult
	// PrimECPointAdd is a single group addition.
	PrimECPointAdd
	// PrimECPointDecode is a compressed-point decompression (one
	// modular square root).
	PrimECPointDecode
	// PrimModInverse is a scalar field inversion (ECDSA).
	PrimModInverse
	// PrimRandScalar is ephemeral/nonce scalar generation.
	PrimRandScalar
	// PrimHashBytes is SHA-256 over N bytes.
	PrimHashBytes
	// PrimMACBytes is HMAC-SHA-256 over N bytes, the only MAC the
	// suites compute; the hardware model prices MAC bytes the same
	// whatever the algorithm.
	PrimMACBytes
	// PrimAESBytes is AES-128 encryption/decryption of N bytes.
	PrimAESBytes
	// PrimKDF is one key-derivation invocation (a handful of HMAC
	// blocks).
	PrimKDF
	// PrimRandBytes is symmetric nonce generation of N bytes.
	PrimRandBytes
)

var primitiveNames = map[Primitive]string{
	PrimECBaseMult:     "ec-base-mult",
	PrimECPointMult:    "ec-point-mult",
	PrimECCombinedMult: "ec-combined-mult",
	PrimECPointAdd:     "ec-point-add",
	PrimECPointDecode:  "ec-point-decode",
	PrimModInverse:     "mod-inverse",
	PrimRandScalar:     "rand-scalar",
	PrimHashBytes:      "hash-bytes",
	PrimMACBytes:       "mac-bytes",
	PrimAESBytes:       "aes-bytes",
	PrimKDF:            "kdf",
	PrimRandBytes:      "rand-bytes",
}

// String returns the primitive's trace name, such as "kdf".
func (p Primitive) String() string {
	if s, ok := primitiveNames[p]; ok {
		return s
	}
	return fmt.Sprintf("primitive(%d)", int(p))
}

// Phase labels the paper's protocol operations. For STS these are
// exactly Op1–Op4 of §IV-C; the baselines reuse the same vocabulary for
// their analogous stages so the timing model can schedule any protocol.
type Phase string

const (
	// PhaseOp1 — request phase: random XG point derivation (or nonce
	// generation in the static protocols).
	PhaseOp1 Phase = "Op1"
	// PhaseOp2 — public-key and (pre)master session-key generation.
	PhaseOp2 Phase = "Op2"
	// PhaseOp2Premaster — the XG-dependent share of Op2: the premaster
	// multiplication and session KDF. Available as soon as the peer's
	// ephemeral point arrives, in both conventional and optimized STS.
	PhaseOp2Premaster Phase = "Op2a"
	// PhaseOp2PubKey — the certificate-dependent share of Op2: implicit
	// public-key reconstruction. This is the work the Opt. I message
	// reordering moves forward so the two parties execute it
	// concurrently (§IV-C).
	PhaseOp2PubKey Phase = "Op2b"
	// PhaseOp3 — authentication response derivation (sign + encrypt,
	// or MAC).
	PhaseOp3 Phase = "Op3"
	// PhaseOp4 — authentication verification (decrypt + verify, or
	// MAC check).
	PhaseOp4 Phase = "Op4"
)

// Base folds sub-phases into the paper's four-operation vocabulary:
// Op2a and Op2b report as Op2.
func (p Phase) Base() Phase {
	if p == PhaseOp2Premaster || p == PhaseOp2PubKey {
		return PhaseOp2
	}
	return p
}

// Phases lists the four operations of §IV-C in order (base phases).
func Phases() []Phase { return []Phase{PhaseOp1, PhaseOp2, PhaseOp3, PhaseOp4} }

// RawPhases lists every phase tag a trace may carry, including the
// Op2 sub-phases used by the optimization scheduler.
func RawPhases() []Phase {
	return []Phase{PhaseOp1, PhaseOp2, PhaseOp2Premaster, PhaseOp2PubKey, PhaseOp3, PhaseOp4}
}

// Event is one recorded primitive execution.
type Event struct {
	Party PartyRole
	Phase Phase
	Prim  Primitive
	// N counts bytes for the byte-metered primitives and repetitions
	// for the op-metered ones.
	N int
}

// Trace is the ordered execution record of one protocol run.
type Trace struct {
	Events []Event
}

// meter tags recorded events with a fixed party and mutable phase.
type meter struct {
	trace *Trace
	party PartyRole
	phase Phase
}

func (t *Trace) meterFor(party PartyRole) *meter {
	return &meter{trace: t, party: party, phase: PhaseOp1}
}

// enter switches the meter to a new phase.
func (m *meter) enter(p Phase) { m.phase = p }

// record appends an event.
func (m *meter) record(prim Primitive, n int) {
	if m == nil || m.trace == nil {
		return
	}
	m.trace.Events = append(m.trace.Events, Event{
		Party: m.party,
		Phase: m.phase,
		Prim:  prim,
		N:     n,
	})
}

// Counts aggregates a trace into per-(party, phase, primitive) totals.
type Counts map[PartyRole]map[Phase]map[Primitive]int

// Aggregate folds the event list into Counts.
func (t *Trace) Aggregate() Counts {
	out := Counts{}
	for _, e := range t.Events {
		byPhase, ok := out[e.Party]
		if !ok {
			byPhase = map[Phase]map[Primitive]int{}
			out[e.Party] = byPhase
		}
		byPrim, ok := byPhase[e.Phase]
		if !ok {
			byPrim = map[Primitive]int{}
			byPhase[e.Phase] = byPrim
		}
		byPrim[e.Prim] += e.N
	}
	return out
}

// PhaseCounts returns the primitive totals of one party's base phase,
// folding sub-phases (Op2a/Op2b → Op2) together.
func (c Counts) PhaseCounts(party PartyRole, phase Phase) map[Primitive]int {
	byPhase, ok := c[party]
	if !ok {
		return nil
	}
	out := map[Primitive]int{}
	for raw, counts := range byPhase {
		if raw.Base() != phase.Base() {
			continue
		}
		for prim, n := range counts {
			out[prim] += n
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// RawPhaseCounts returns the primitive totals of one exact phase tag,
// without sub-phase folding.
func (c Counts) RawPhaseCounts(party PartyRole, phase Phase) map[Primitive]int {
	if byPhase, ok := c[party]; ok {
		return byPhase[phase]
	}
	return nil
}
