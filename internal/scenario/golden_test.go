package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/canbus"
)

// compareGolden diffs got against the committed golden file,
// regenerating it under -update.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the golden file.\n"+
			"An intentional change to impairment keying, fabric construction or trace format\n"+
			"must regenerate it: go test ./internal/scenario -run %s -update\n"+
			"got %d bytes, want %d bytes; first divergence at byte %d",
			path, t.Name(), len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// goldenScenario is the canonical 3-segment degraded-bus scenario
// whose complete fault/recovery trace is committed as testdata. Any
// change to the content-keyed impairment hash, the occurrence
// counters, the fabric wiring, the ISO-TP recovery machinery or the
// trace format shows up as a byte diff here — loudly, with the
// -update escape hatch for intentional changes.
func goldenScenario() Scenario {
	return Scenario{
		Name:           "golden-3seg",
		Seed:           42,
		Peers:          4,
		Segments:       3,
		GatewayLatency: 50 * time.Microsecond,
		// 800 frames/s ⇒ a 1.25 ms release gap, above a frame's wire
		// time, so the egress gate genuinely engages in the trace.
		Egress:   canbus.EgressPolicy{Rate: 800},
		Profile:  Profile{Drop: 0.05, Corrupt: 0.01},
		Workload: WorkloadLatency,
		Attempts: 10,
	}
}

func TestGoldenTrace(t *testing.T) {
	var buf bytes.Buffer
	res, _, err := RunWith(goldenScenario(), Options{Workers: 1}, NewTraceSink(&buf))
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Errors != 0 {
		t.Fatalf("golden scenario failed handshakes: %+v", pt)
	}
	if pt.BusDropped == 0 || pt.BusCorrupted == 0 || pt.Retransmits+pt.MessageResends+pt.Retries == 0 {
		t.Fatalf("golden scenario exercised no fault recovery: %+v", pt)
	}
	compareGolden(t, "testdata/golden_trace.txt", buf.Bytes())
}
