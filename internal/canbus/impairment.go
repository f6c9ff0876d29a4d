package canbus

import (
	"encoding/binary"
	"time"

	"repro/internal/detrand"
)

// Impairment configures deterministic frame-level fault injection on a
// bus. Rates are independent per-frame probabilities in [0, 1].
//
// Fault decisions are content-keyed: each transmitted frame's fate is
// a pure function of (Seed, BusID, CAN identifier, payload bytes, and
// an occurrence counter scoped to this bus and identifier), mixed
// through splitmix64. Nothing depends on the global transmit order, so
// interleaving independent conversations — frames with distinct CAN
// identifiers — in any order yields the exact same fault set. That is
// what lets concurrent fleet bring-ups (EstablishAll with
// parallelism > 1) reproduce bit-for-bit under a fixed seed: each
// conversation owns its identifiers, so its fault stream is immune to
// how the scheduler interleaves the others.
//
// The per-(bus, identifier) occurrence counter serves two purposes:
// a retransmitted frame with identical content gets a fresh,
// independent decision (a dropped FirstFrame is not dropped forever),
// and two content-identical frames in one stream do not share a fate.
// Frames sharing one identifier keep their relative order on a real
// bus (one transmitter per ID, CAN arbitration per ID), so counting
// occurrences per (bus, ID) stays deterministic under concurrency.
//
// The fault model follows what a real CAN-FD segment can do to a
// frame:
//
//   - Drop: the frame is destroyed on the wire (EMI burst, dominant
//     glitch). It still occupies the bus for its wire time but reaches
//     no receiver.
//   - Corrupt: one payload bit flips and the receiving controllers'
//     CRC check is assumed defeated (the CRC-collision case the upper
//     layers must survive). The corrupted payload is delivered, which
//     exercises ISO-TP PCI validation and the transport checksum.
//   - Duplicate: the frame is delivered twice, as happens when a
//     transmitter misses its ACK slot and re-arbitrates although every
//     receiver already accepted the frame.
//   - Delay: the frame is held for Delay of extra latency (charged to
//     the simulated clock) before delivery — a saturated controller or
//     a busy segment.
type Impairment struct {
	Seed uint64

	// BusID salts the content key per segment, so one profile with one
	// seed applied to every segment of a topology still yields
	// independent per-bus fault streams. Callers that instead derive a
	// distinct Seed per bus may leave it zero.
	BusID uint64

	Drop      float64 // probability a frame is lost on the wire
	Corrupt   float64 // probability a delivered frame has a bit flipped
	Duplicate float64 // probability a frame is delivered twice
	DelayRate float64 // probability a frame is delayed by Delay

	Delay time.Duration // extra latency charged per delayed frame
}

// FaultKind classifies one injected fault.
type FaultKind uint8

// Fault kinds, in the order Send evaluates them.
const (
	FaultDrop FaultKind = iota
	FaultCorrupt
	FaultDuplicate
	FaultDelay
)

// String renders the fault kind for traces and log lines.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultCorrupt:
		return "corrupt"
	case FaultDuplicate:
		return "duplicate"
	case FaultDelay:
		return "delay"
	}
	return "unknown"
}

// FaultEvent describes one injected fault, emitted through the trace
// hook installed with Bus.SetFaultTrace. Time is the simulated clock
// after the frame's wire occupancy; Occurrence is the frame's index
// among frames with the same identifier (FrameID plus Extended — a
// 29-bit identifier is distinct from the equal-valued 11-bit one) on
// this bus since the impairment was (re-)armed. Together with BusID
// and the identifier it names the fault decision uniquely, which is
// what the golden-trace regression tests diff.
type FaultEvent struct {
	Time       time.Duration
	BusID      uint64
	FrameID    uint32
	Extended   bool
	Occurrence uint64
	Kind       FaultKind
}

// impairRoll is one per-frame fault decision.
type impairRoll struct {
	occ        uint64 // occurrence index the decision was keyed with
	drop       bool
	corrupt    bool
	corruptPos uint64 // bit index selector within the payload
	duplicate  bool
	delay      bool
}

// impairState holds the content-keyed decision state: the profile and
// the per-identifier occurrence counters. Re-arming (Bus.Impair)
// resets the counters, so a topology can be re-run reproducibly.
type impairState struct {
	cfg Impairment
	occ map[uint64]uint64 // keyed by wireID: bare ID plus extended bit
}

func newImpairState(cfg Impairment) *impairState {
	return &impairState{cfg: cfg, occ: make(map[uint64]uint64)}
}

// wireID is the occurrence-counter and hash key for an identifier: a
// 29-bit extended identifier is a different identifier than the
// equal-valued 11-bit one, so the extended bit is part of the key —
// otherwise two such conversations would share a counter and their
// interleaving would leak into each other's fault decisions.
func wireID(f *Frame) uint64 {
	id := uint64(f.ID)
	if f.Extended {
		id |= 1 << 32
	}
	return id
}

// frameKey hashes the frame's content into the 64-bit seed of its
// private decision stream. Every input that identifies the frame —
// bus, identifier (with the extended bit), payload bytes, length and
// occurrence index — is absorbed through the splitmix64 finalizer.
func (s *impairState) frameKey(f *Frame, occ uint64) uint64 {
	h := s.cfg.Seed ^ detrand.Golden
	h = detrand.Mix64(h ^ s.cfg.BusID)
	h = detrand.Mix64(h ^ wireID(f))
	h = detrand.Mix64(h ^ occ)
	// The payload is absorbed in little-endian 8-byte words, byte i at
	// bit 8·(i mod 8); a short tail is zero-padded to a last word.
	data := f.Data
	for ; len(data) >= 8; data = data[8:] {
		h = detrand.Mix64(h ^ binary.LittleEndian.Uint64(data))
	}
	if len(data) > 0 {
		var tail [8]byte
		copy(tail[:], data)
		h = detrand.Mix64(h ^ binary.LittleEndian.Uint64(tail[:]))
	}
	return detrand.Mix64(h ^ uint64(len(f.Data)))
}

// decisionStream draws the fixed set of per-frame variates from a
// splitmix64 sequence seeded by the frame key.
type decisionStream struct{ state uint64 }

func (s *decisionStream) next() uint64 {
	s.state += detrand.Golden
	return detrand.Mix64(s.state)
}

// uniform returns the next variate in [0, 1).
func (s *decisionStream) uniform() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}

// roll draws the complete fault decision for one frame, advancing the
// frame's (bus, identifier) occurrence counter. The stream always
// draws the same number of variates, so a decision depends only on the
// frame key, never on the configured rates.
func (s *impairState) roll(f *Frame) impairRoll {
	key := wireID(f)
	occ := s.occ[key]
	s.occ[key] = occ + 1
	g := decisionStream{state: s.frameKey(f, occ)}
	var r impairRoll
	r.occ = occ
	r.drop = g.uniform() < s.cfg.Drop
	r.corrupt = g.uniform() < s.cfg.Corrupt
	r.corruptPos = g.next()
	r.duplicate = g.uniform() < s.cfg.Duplicate
	r.delay = g.uniform() < s.cfg.DelayRate
	return r
}

// corruptFrame flips one payload bit chosen by the roll. Zero-length
// payloads cannot be corrupted.
func corruptFrame(data []byte, roll impairRoll) {
	if len(data) == 0 {
		return
	}
	bit := roll.corruptPos % uint64(8*len(data))
	data[bit/8] ^= 1 << (bit % 8)
}
