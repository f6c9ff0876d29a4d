package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/detrand"
	"repro/internal/ec"
)

func newDetRand(seed int64) io.Reader { return detrand.NewReader(uint64(seed)) }

// newPair provisions two parties on a fresh network for tests.
func newPair(t *testing.T, seed int64) (*Party, *Party) {
	t.Helper()
	net, err := NewNetwork(ec.P256(), newDetRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := net.Pair("alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestAllProtocolsAgreeOnKeys(t *testing.T) {
	for _, p := range Protocols() {
		t.Run(p.Name(), func(t *testing.T) {
			a, b := newPair(t, 1)
			res, err := p.Run(a, b)
			if err != nil {
				t.Fatal(err)
			}
			key, err := res.SessionKey()
			if err != nil {
				t.Fatal(err)
			}
			if len(key) != 48 { // 16 B AES + 32 B MAC key material
				t.Errorf("session key length %d", len(key))
			}
			if !bytes.Equal(res.KeyA, res.KeyB) {
				t.Error("parties derived different keys")
			}
		})
	}
}

func TestTranscriptMatchesSpec(t *testing.T) {
	// The dynamic transcript must match the static Table II spec
	// byte-for-byte in structure: same labels, same field sizes.
	for _, p := range Protocols() {
		t.Run(p.Name(), func(t *testing.T) {
			a, b := newPair(t, 2)
			res, err := p.Run(a, b)
			if err != nil {
				t.Fatal(err)
			}
			spec := p.Spec()
			if len(res.Transcript) != len(spec) {
				t.Fatalf("transcript has %d steps, spec %d", len(res.Transcript), len(spec))
			}
			for i, msg := range res.Transcript {
				if msg.Label != spec[i].Label {
					t.Errorf("step %d label %s, spec %s", i, msg.Label, spec[i].Label)
				}
				if msg.Len() != spec[i].Size() {
					t.Errorf("step %s size %d, spec %d", msg.Label, msg.Len(), spec[i].Size())
				}
				if len(msg.Field) != len(spec[i].Fields) {
					t.Errorf("step %s has %d fields, spec %d", msg.Label, len(msg.Field), len(spec[i].Fields))
					continue
				}
				for j, f := range msg.Field {
					if len(f.Bytes) != spec[i].Fields[j].Size {
						t.Errorf("step %s field %s size %d, spec %d",
							msg.Label, f.Name, len(f.Bytes), spec[i].Fields[j].Size)
					}
				}
			}
		})
	}
}

func TestTable2Totals(t *testing.T) {
	// Table II exact values: steps and total bytes per protocol.
	cases := []struct {
		proto Protocol
		steps int
		bytes int
	}{
		{NewSECDSA(false), 4, 427},
		{NewSECDSA(true), 5, 427 + 192},
		{NewSTS(OptNone), 4, 491},
		{NewSTS(OptI), 4, 491},
		{NewSTS(OptII), 4, 491},
		{NewSCIANC(), 4, 362},
		{NewPORAMB(), 6, 820},
	}
	for _, tc := range cases {
		t.Run(tc.proto.Name(), func(t *testing.T) {
			if got := len(tc.proto.Spec()); got != tc.steps {
				t.Errorf("spec steps = %d, want %d", got, tc.steps)
			}
			if got := SpecTotal(tc.proto.Spec()); got != tc.bytes {
				t.Errorf("spec total = %d B, want %d B", got, tc.bytes)
			}
			// And the dynamic run agrees.
			a, b := newPair(t, 3)
			res, err := tc.proto.Run(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps() != tc.steps {
				t.Errorf("run steps = %d, want %d", res.Steps(), tc.steps)
			}
			if res.TotalBytes() != tc.bytes {
				t.Errorf("run total = %d B, want %d B", res.TotalBytes(), tc.bytes)
			}
		})
	}
}

func TestSTSEphemeralKeys(t *testing.T) {
	// DKD property: two runs under the same certificates derive
	// different session keys.
	a, b := newPair(t, 4)
	p := NewSTS(OptNone)
	r1, err := p.Run(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Run(a, b)
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := r1.SessionKey()
	k2, _ := r2.SessionKey()
	if bytes.Equal(k1, k2) {
		t.Fatal("STS derived the same key across sessions (not ephemeral)")
	}
}

func TestStaticProtocolsKeyBehaviour(t *testing.T) {
	// SKD protocols with nonce-diversified KDF salts still change the
	// displayed key per session, but the underlying premaster is
	// constant — the security package proves the distinction. Here we
	// pin the classification flags.
	for _, p := range Protocols() {
		isSTS := p.Dynamic()
		switch p.(type) {
		case *STS:
			if !isSTS {
				t.Errorf("%s must be dynamic", p.Name())
			}
		default:
			if isSTS {
				t.Errorf("%s must be static", p.Name())
			}
		}
	}
}

func TestSTSOptimizationVariantsSameData(t *testing.T) {
	// §IV-C: "The sent data is identical to the original protocol,
	// but the message and content order vary slightly."
	totals := map[string]int{}
	for _, opt := range []STSOptimization{OptNone, OptI, OptII} {
		a, b := newPair(t, 5)
		res, err := NewSTS(opt).Run(a, b)
		if err != nil {
			t.Fatal(err)
		}
		totals[opt.String()] = res.TotalBytes()
	}
	if totals["none"] != totals["opt. I"] || totals["none"] != totals["opt. II"] {
		t.Errorf("optimization changed wire totals: %v", totals)
	}
}

func TestCrossProtocolKeysDiffer(t *testing.T) {
	// Different protocols on the same credentials must not derive the
	// same key (domain separation through different salts/flows).
	a, b := newPair(t, 6)
	keys := map[string][]byte{}
	for _, p := range []Protocol{NewSECDSA(false), NewSTS(OptNone), NewSCIANC(), NewPORAMB()} {
		res, err := p.Run(a, b)
		if err != nil {
			t.Fatal(err)
		}
		k, _ := res.SessionKey()
		for name, other := range keys {
			if bytes.Equal(k, other) {
				t.Errorf("%s and %s derived identical keys", p.Name(), name)
			}
		}
		keys[p.Name()] = k
	}
}

func TestRunRejectsUnprovisionedParties(t *testing.T) {
	a, b := newPair(t, 7)

	for _, p := range Protocols() {
		if _, err := p.Run(nil, b); err == nil {
			t.Errorf("%s: nil party accepted", p.Name())
		}
		stripped := a.Clone()
		stripped.Cert = nil
		if _, err := p.Run(stripped, b); err == nil {
			t.Errorf("%s: missing certificate accepted", p.Name())
		}
	}

	// Curve mismatch.
	net224, err := NewNetwork(ec.P224(), newDetRand(8))
	if err != nil {
		t.Fatal(err)
	}
	c, err := net224.Provision("carol")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSTS(OptNone).Run(a, c); err == nil {
		t.Error("cross-curve run accepted")
	}

	// PORAMB without pairwise keys.
	noPSK := a.Clone()
	noPSK.PairwiseKey = nil
	if _, err := NewPORAMB().Run(noPSK, b); err == nil {
		t.Error("PORAMB without pairwise key accepted")
	}
}

func TestCrossCANetworksRejectEachOther(t *testing.T) {
	// Parties certified by different CAs must fail mutual
	// authentication: the extracted public keys are wrong, so the
	// STS/S-ECDSA signatures do not verify.
	net1, _ := NewNetwork(ec.P256(), newDetRand(9))
	net2, _ := NewNetwork(ec.P256(), newDetRand(10))
	a, _ := net1.Provision("alice")
	mallory, _ := net2.Provision("bob") // claims to be bob, signed by a rogue CA

	if _, err := NewSTS(OptNone).Run(a, mallory); !errors.Is(err, ErrHandshakeAuth) {
		t.Errorf("STS against a foreign CA's certificate: %v, want ErrHandshakeAuth", err)
	}
	if _, err := NewSECDSA(false).Run(a, mallory); err == nil {
		t.Error("S-ECDSA accepted a certificate from a foreign CA")
	}
}

func TestImpersonationWithoutPrivateKeyFails(t *testing.T) {
	// A party presenting bob's certificate but holding a different
	// private key must fail STS authentication (the device-
	// authentication property the paper stresses against [16]).
	net, _ := NewNetwork(ec.P256(), newDetRand(11))
	a, b, err := net.Pair("alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	evil, err := net.Provision("mallory")
	if err != nil {
		t.Fatal(err)
	}
	forged := b.Clone()
	forged.Priv = evil.Priv // certificate bob, key mallory
	if _, err := NewSTS(OptNone).Run(a, forged); !errors.Is(err, ErrHandshakeAuth) {
		t.Errorf("STS with a certificate/key mismatch: %v, want ErrHandshakeAuth", err)
	}
	if _, err := NewSECDSA(false).Run(a, forged); err == nil {
		t.Error("S-ECDSA accepted a certificate/key mismatch")
	}
}

func TestTraceCoversAllPhases(t *testing.T) {
	// Every protocol must record work in every phase for both parties
	// (the timing model depends on it).
	for _, p := range Protocols() {
		t.Run(p.Name(), func(t *testing.T) {
			a, b := newPair(t, 12)
			res, err := p.Run(a, b)
			if err != nil {
				t.Fatal(err)
			}
			counts := res.Trace.Aggregate()
			for _, role := range []PartyRole{RoleA, RoleB} {
				for _, phase := range Phases() {
					if len(counts.PhaseCounts(role, phase)) == 0 {
						t.Errorf("party %s has no events in %s", role, phase)
					}
				}
			}
		})
	}
}

func TestSTSTraceOpCounts(t *testing.T) {
	// Pin the EC operation counts per party for STS — the quantities
	// the Table I model scales.
	a, b := newPair(t, 13)
	res, err := NewSTS(OptNone).Run(a, b)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Trace.Aggregate()
	for _, role := range []PartyRole{RoleA, RoleB} {
		op1 := counts.PhaseCounts(role, PhaseOp1)
		if op1[PrimECBaseMult] != 1 {
			t.Errorf("%s Op1 base mults = %d, want 1", role, op1[PrimECBaseMult])
		}
		op2 := counts.PhaseCounts(role, PhaseOp2)
		if op2[PrimECPointMult] != 2 { // pubkey reconstruction + premaster
			t.Errorf("%s Op2 point mults = %d, want 2", role, op2[PrimECPointMult])
		}
		op3 := counts.PhaseCounts(role, PhaseOp3)
		if op3[PrimECBaseMult] != 1 { // ECDSA sign
			t.Errorf("%s Op3 base mults = %d, want 1", role, op3[PrimECBaseMult])
		}
		op4 := counts.PhaseCounts(role, PhaseOp4)
		if op4[PrimECCombinedMult] != 1 { // ECDSA verify
			t.Errorf("%s Op4 combined mults = %d, want 1", role, op4[PrimECCombinedMult])
		}
	}
}

func TestSCIANCSingleMultPerSession(t *testing.T) {
	// SCIANC's cached-CA-term agreement must cost exactly one point
	// multiplication per device per session (the Table I speed
	// explanation).
	a, b := newPair(t, 14)
	res, err := NewSCIANC().Run(a, b)
	if err != nil {
		t.Fatal(err)
	}
	counts := res.Trace.Aggregate()
	for _, role := range []PartyRole{RoleA, RoleB} {
		total := 0
		for _, phase := range Phases() {
			pc := counts.PhaseCounts(role, phase)
			total += pc[PrimECPointMult] + pc[PrimECBaseMult] + pc[PrimECCombinedMult]
		}
		if total != 1 {
			t.Errorf("%s: %d EC multiplications, want 1", role, total)
		}
	}
}

func TestWireMessageHelpers(t *testing.T) {
	m := WireMessage{From: RoleA, Label: "A1", Field: []Field{
		{"ID", make([]byte, 16)},
		{"XG", make([]byte, 64)},
	}}
	if m.Len() != 80 {
		t.Errorf("Len = %d", m.Len())
	}
	if m.Get("XG") == nil || m.Get("missing") != nil {
		t.Error("Get misbehaves")
	}
	if RoleA.String() != "A" || RoleB.String() != "B" {
		t.Error("role names")
	}
}

func TestResultSessionKeyMismatch(t *testing.T) {
	r := &Result{KeyA: []byte{1}, KeyB: []byte{2}}
	if _, err := r.SessionKey(); err == nil {
		t.Error("mismatched keys accepted")
	}
	empty := &Result{}
	if _, err := empty.SessionKey(); err == nil {
		t.Error("empty keys accepted")
	}
}
