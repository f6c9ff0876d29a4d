package security

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/detrand"
)

func newDetRand(seed int64) io.Reader { return detrand.NewReader(uint64(seed)) }

// paperTable3 is the measured security matrix of the paper's
// Table III, column order S-ECDSA, STS, SCIANC, PORAMB.
var paperTable3 = map[Criterion]map[string]Verdict{
	CritDataExposure: {
		"S-ECDSA": VerdictWeak, "STS": VerdictFull, "SCIANC": VerdictWeak, "PORAMB": VerdictWeak,
	},
	CritNodeCapture: {
		"S-ECDSA": VerdictPartial, "STS": VerdictPartial, "SCIANC": VerdictWeak, "PORAMB": VerdictWeak,
	},
	CritKeyDataReuse: {
		"S-ECDSA": VerdictWeak, "STS": VerdictFull, "SCIANC": VerdictPartial, "PORAMB": VerdictWeak,
	},
	CritKeyDerivationExploit: {
		"S-ECDSA": VerdictPartial, "STS": VerdictFull, "SCIANC": VerdictPartial, "PORAMB": VerdictPartial,
	},
	CritAuthProcedure: {
		"S-ECDSA": VerdictFull, "STS": VerdictFull, "SCIANC": VerdictPartial, "PORAMB": VerdictPartial,
	},
}

func TestTable3MatchesPaper(t *testing.T) {
	// The verdicts produced by the attack simulations must reproduce
	// the paper's Table III cell-for-cell.
	an := NewAnalyzer(newDetRand(1))
	assessments, err := an.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(assessments) != 4 {
		t.Fatalf("%d assessments, want 4", len(assessments))
	}
	for _, as := range assessments {
		for crit, wantByProto := range paperTable3 {
			want, ok := wantByProto[as.Protocol]
			if !ok {
				t.Fatalf("no paper verdict for %s/%s", as.Protocol, crit)
			}
			got := as.Verdicts[crit]
			if got != want {
				t.Errorf("%s / %s: simulated %s, paper %s", as.Protocol, crit, got, want)
			}
		}
	}
}

func TestSTSPastExposureAttackFails(t *testing.T) {
	// The core PFS claim: long-term key compromise must NOT reveal
	// recorded STS session keys.
	an := NewAnalyzer(newDetRand(2))
	as, err := an.Analyze(core.NewSTS(core.OptNone))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range as.Findings {
		if f.Attack == "past data exposure (T1): compromise long-term keys, re-derive recorded session key" && f.Succeeded {
			t.Error("T1 attack succeeded against STS")
		}
	}
	if as.Verdicts[CritDataExposure] != VerdictFull {
		t.Error("STS data-exposure verdict not ✓")
	}
}

func TestStaticProtocolsPastExposureAttackSucceeds(t *testing.T) {
	// The attack must actually work (not merely be assumed) against
	// every static-KD protocol.
	an := NewAnalyzer(newDetRand(3))
	for _, p := range []core.Protocol{core.NewSECDSA(false), core.NewSCIANC(), core.NewPORAMB()} {
		as, err := an.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range as.Findings {
			if f.Attack == "past data exposure (T1): compromise long-term keys, re-derive recorded session key" {
				found = f.Succeeded
			}
		}
		if !found {
			t.Errorf("%s: T1 re-derivation attack did not succeed (it must, for a static KD)", p.Name())
		}
	}
}

func TestSCIANCFutureAuthForgery(t *testing.T) {
	// The paper's SCIANC critique: one compromised session key forges
	// the next session's authentication.
	an := NewAnalyzer(newDetRand(4))
	as, err := an.Analyze(core.NewSCIANC())
	if err != nil {
		t.Fatal(err)
	}
	forged := false
	for _, f := range as.Findings {
		if f.Attack == "key derivation exploit (T5): forge next-session authentication from one compromised session key" {
			forged = f.Succeeded
		}
	}
	if !forged {
		t.Error("SCIANC future-auth forgery did not succeed")
	}

	// And the same attack must fail against STS.
	asSTS, err := an.Analyze(core.NewSTS(core.OptNone))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range asSTS.Findings {
		if f.Attack == "key derivation exploit (T5): forge next-session authentication from one compromised session key" && f.Succeeded {
			t.Error("future-auth forgery succeeded against STS")
		}
	}
}

func TestNodeCaptureKCI(t *testing.T) {
	// PORAMB and SCIANC: capturing one node lets the attacker
	// impersonate the peer (symmetric credentials). S-ECDSA and STS:
	// it does not.
	an := NewAnalyzer(newDetRand(5))
	expect := map[string]bool{
		"S-ECDSA": false, "STS": false, "SCIANC": true, "PORAMB": true,
	}
	for _, p := range []core.Protocol{
		core.NewSECDSA(false), core.NewSTS(core.OptNone), core.NewSCIANC(), core.NewPORAMB(),
	} {
		as, err := an.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		got := false
		for _, f := range as.Findings {
			if f.Attack == "node capture (T3): impersonate the peer using one captured endpoint's state" {
				got = f.Succeeded
			}
		}
		if got != expect[p.Name()] {
			t.Errorf("%s: KCI success = %v, want %v", p.Name(), got, expect[p.Name()])
		}
	}
}

func TestImpersonationRejectedEverywhere(t *testing.T) {
	// All four protocols must reject a rogue-CA impostor — they all
	// have *some* authentication; the verdict differences are about
	// its quality.
	an := NewAnalyzer(newDetRand(6))
	for _, p := range []core.Protocol{
		core.NewSECDSA(false), core.NewSTS(core.OptNone), core.NewSCIANC(), core.NewPORAMB(),
	} {
		as, err := an.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range as.Findings {
			if f.Attack == "MitM (T2): complete the handshake with credentials from a rogue CA" && f.Succeeded {
				t.Errorf("%s: rogue-CA impostor completed the handshake", p.Name())
			}
		}
	}
}

func TestReplayRejectedEverywhere(t *testing.T) {
	// Freshness: replayed session-1 credentials must be rejected in
	// session 2 by every protocol.
	an := NewAnalyzer(newDetRand(8))
	for _, p := range []core.Protocol{
		core.NewSECDSA(false), core.NewSTS(core.OptNone), core.NewSCIANC(), core.NewPORAMB(),
	} {
		as, err := an.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		seen := false
		for _, f := range as.Findings {
			if f.Attack == "replay (T2): inject session-1 authentication material into session 2" {
				seen = true
				if f.Succeeded {
					t.Errorf("%s: replay attack succeeded (%s)", p.Name(), f.Detail)
				}
			}
		}
		if !seen {
			t.Errorf("%s: replay attack not executed", p.Name())
		}
	}
}

// TestReplayPositiveControl replays each protocol's session 1 into
// session 1 itself. Every arm must then accept the replay: otherwise a
// "replay rejected" verdict in TestReplayRejectedEverywhere could come
// from a misread recording rather than from a fresh challenge.
func TestReplayPositiveControl(t *testing.T) {
	an := NewAnalyzer(newDetRand(9))
	net, err := core.NewNetwork(an.curve, an.rng)
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := net.Pair("alice", "bob")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.Protocol{
		core.NewSECDSA(false), core.NewSTS(core.OptNone), core.NewSCIANC(), core.NewPORAMB(),
	} {
		s1, err := p.Run(a, b)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		ok, detail, err := an.attackReplay(p, s1, s1, a, b)
		if err != nil {
			t.Errorf("%s: %v", p.Name(), err)
			continue
		}
		if !ok {
			t.Errorf("%s: session 1 replayed into itself was rejected (%s)", p.Name(), detail)
		}
	}
}

func TestFig8Consistency(t *testing.T) {
	an := NewAnalyzer(newDetRand(7))
	sts, err := an.Analyze(core.NewSTS(core.OptNone))
	if err != nil {
		t.Fatal(err)
	}
	if err := ConsistentWith(sts); err != nil {
		t.Errorf("Fig. 8 mapping inconsistent with simulated STS verdicts: %v", err)
	}

	// The mapping itself: five threats, every one countered, exactly
	// one residual (node capture).
	mapping := Fig8Mapping()
	if len(mapping) != 5 {
		t.Fatalf("%d threats, want 5", len(mapping))
	}
	residuals := 0
	for _, m := range mapping {
		if len(m.Counter) == 0 {
			t.Errorf("%s: no countermeasure", m.ID)
		}
		if len(m.Assets) == 0 {
			t.Errorf("%s: no asset", m.ID)
		}
		if m.Residual {
			residuals++
		}
	}
	if residuals != 1 {
		t.Errorf("%d residual threats, want 1 (T3)", residuals)
	}
}

func TestFig8InconsistencyDetected(t *testing.T) {
	// A fabricated assessment that claims full node-capture protection
	// must be flagged.
	fake := &Assessment{
		Protocol: "STS",
		Verdicts: map[Criterion]Verdict{
			CritDataExposure:         VerdictFull,
			CritNodeCapture:          VerdictFull, // wrong: must be partial
			CritKeyDataReuse:         VerdictFull,
			CritKeyDerivationExploit: VerdictFull,
			CritAuthProcedure:        VerdictFull,
		},
	}
	if err := ConsistentWith(fake); err == nil {
		t.Error("inconsistent assessment accepted")
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictWeak.String() != "X" || VerdictPartial.String() != "∆" || VerdictFull.String() != "✓" {
		t.Error("verdict notation drifted from the paper")
	}
}

func TestCriteriaOrder(t *testing.T) {
	want := []Criterion{
		CritDataExposure, CritNodeCapture, CritKeyDataReuse,
		CritKeyDerivationExploit, CritAuthProcedure,
	}
	got := Criteria()
	if len(got) != len(want) {
		t.Fatal("criteria count")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("criteria[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestSignatureBasedDetection(t *testing.T) {
	if !signatureBased(core.NewSTS(core.OptNone)) || !signatureBased(core.NewSECDSA(false)) {
		t.Error("signature protocols not detected")
	}
	if signatureBased(core.NewSCIANC()) || signatureBased(core.NewPORAMB()) {
		t.Error("symmetric protocols misdetected as signature-based")
	}
}
