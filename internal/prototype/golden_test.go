package prototype

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/hwmodel"
)

// -update regenerates the committed paper-artifact golden file.
var update = flag.Bool("update", false, "rewrite the golden paper-artifact file")

const artifactsGolden = "testdata/paper_artifacts.golden"

// fmtMS renders a modelled time at full float64 precision, so the
// golden pins every bit rather than a rounded printout.
func fmtMS(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// paperArtifacts renders every modelled number behind the paper's
// Table I and Figures 3, 4 and 7, plus the reference traces they are
// priced from, one tab-separated record per line.
func paperArtifacts(t *testing.T, m *hwmodel.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	line := func(fields ...string) {
		for i, f := range fields {
			if i > 0 {
				buf.WriteByte('\t')
			}
			buf.WriteString(f)
		}
		buf.WriteByte('\n')
	}
	roles := []core.PartyRole{core.RoleA, core.RoleB}
	stsVariants := []core.Protocol{core.NewSTS(core.OptNone), core.NewSTS(core.OptI), core.NewSTS(core.OptII)}

	// Table I: every protocol on every device.
	table, err := m.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.Protocols() {
		for _, dev := range m.Devices() {
			line("table1", p.Name(), dev.Name, fmtMS(table[p.Name()][dev.Name]))
		}
	}

	// Fig. 3: per-party base-phase times of each STS variant.
	for _, p := range stsVariants {
		trace, err := m.ReferenceTrace(p.Name())
		if err != nil {
			t.Fatal(err)
		}
		for _, dev := range m.Devices() {
			phases := m.PhaseMS(trace, dev)
			for _, role := range roles {
				for _, ph := range core.Phases() {
					line("fig3", p.Name(), dev.Name, role.String(), string(ph), fmtMS(phases[role][ph]))
				}
			}
		}
	}

	// Fig. 4: protocol totals on the STM32F767 (Table I holds the
	// other devices), and the Opt. I/II savings over the sequential
	// schedule of equation (5) on every device.
	fig4, err := m.Device("STM32F767")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range core.Protocols() {
		ms, err := m.ProtocolMS(p, fig4, fig4)
		if err != nil {
			t.Fatal(err)
		}
		line("fig4", p.Name(), fig4.Name, fmtMS(ms))
	}
	stsTrace, err := m.ReferenceTrace("STS")
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range m.Devices() {
		seq := m.SequentialMS(stsTrace, dev, dev)
		for _, opt := range []core.STSOptimization{core.OptI, core.OptII} {
			saving := seq - m.OptimizedMS(stsTrace, dev, dev, hwmodel.OverlapSet(opt))
			line("saving", opt.String(), dev.Name, fmtMS(saving))
		}
	}

	// Fig. 7: the S32K144 prototype timelines.
	for _, p := range []core.Protocol{core.NewSTS(core.OptNone), core.NewSECDSA(false)} {
		tl, err := Run(p, m, "S32K144")
		if err != nil {
			t.Fatal(err)
		}
		line("fig7", p.Name(), "total", tl.Total.String())
		line("fig7", p.Name(), "wire", tl.Wire.String())
		for _, seg := range tl.Segments {
			line("fig7-seg", p.Name(), seg.Device, seg.Label, string(seg.Kind), seg.Duration.String())
		}
	}

	// The reference traces the STS rows are priced from, event by
	// event in recording order.
	for _, p := range stsVariants {
		trace, err := m.ReferenceTrace(p.Name())
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range trace.Events {
			line("event", p.Name(), strconv.Itoa(i), e.Party.String(), string(e.Phase), e.Prim.String(), strconv.Itoa(e.N))
		}
	}
	return buf.Bytes()
}

// TestPaperArtifactsGolden pins the paper's modelled artifacts to the
// bit: a change to a protocol's message flow, its metering or the
// hardware model's arithmetic shows up here as a line diff. Regenerate
// only for an intentional change:
//
//	go test ./internal/prototype -run TestPaperArtifactsGolden -update
func TestPaperArtifactsGolden(t *testing.T) {
	got := paperArtifacts(t, newModel(t))
	if *update {
		if err := os.MkdirAll(filepath.Dir(artifactsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(artifactsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", artifactsGolden, len(got))
		return
	}
	want, err := os.ReadFile(artifactsGolden)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create): %v", artifactsGolden, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s line %d drifted:\n got  %s\n want %s", artifactsGolden, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s drifted: %d lines, want %d", artifactsGolden, len(gotLines), len(wantLines))
}
