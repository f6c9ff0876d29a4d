package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// validResultJSON builds a minimal valid current-version result
// document for mutation-based ValidateJSON tests.
func validResultJSON(t testing.TB) []byte {
	t.Helper()
	res, _, err := RunWith(smallScenario(WorkloadLatency), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// spellEmptyLists returns doc with empty attack and phase lists
// written out in its first point, where WriteJSON omits them.
func spellEmptyLists(t testing.TB, doc []byte) []byte {
	t.Helper()
	out := bytes.Replace(doc, []byte(`"steps": [`), []byte(`"attacks": [], "phases": [], "steps": [`), 1)
	if bytes.Equal(out, doc) {
		t.Fatal("no steps list in the document")
	}
	return out
}

// TestValidateJSONEmptyLists: WriteJSON omits an empty attack or phase
// list, so a document that spells one out as [] must validate to the
// same Result as the one that omits it. Otherwise the Result differs
// from its own rewrite, which breaks FuzzValidateJSON's round trip.
func TestValidateJSONEmptyLists(t *testing.T) {
	doc := validResultJSON(t)
	want, err := ValidateJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateJSON(spellEmptyLists(t, doc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("explicit empty lists validate to %+v, omitted ones to %+v", got.Points[0], want.Points[0])
	}
}

// TestValidateJSONRejectsTrailingContent: a decoder stops at the end
// of the first JSON value, so garbage (or a second document) after the
// result used to pass silently. It must be rejected.
func TestValidateJSONRejectsTrailingContent(t *testing.T) {
	doc := validResultJSON(t)
	for _, trailing := range []string{"{}", "null", `"x"`, "[1,2]"} {
		bad := append(append([]byte{}, doc...), []byte(trailing)...)
		_, err := ValidateJSON(bad)
		if err == nil {
			t.Errorf("trailing %q passed validation", trailing)
			continue
		}
		if !strings.Contains(err.Error(), "trailing content") {
			t.Errorf("trailing %q rejected for the wrong reason: %v", trailing, err)
		}
	}
	// Trailing whitespace is not content; it must still pass.
	if _, err := ValidateJSON(append(append([]byte{}, doc...), []byte("\n  \n")...)); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// TestValidateJSONUnknownKeySymmetry pins the fix for the asymmetry
// where an old-version document with an unknown top-level key was
// reported as schema drift (whichever unknown key the strict decoder
// tripped on first) instead of as the version mismatch it is. The
// contract: version errors always win; unknown keys on a
// current-version document are schema drift.
func TestValidateJSONUnknownKeySymmetry(t *testing.T) {
	doc := validResultJSON(t)
	var generic map[string]any
	if err := json.Unmarshal(doc, &generic); err != nil {
		t.Fatal(err)
	}

	// Unknown key, current version: schema drift naming the key.
	generic["relic_field"] = true
	drifted, _ := json.Marshal(generic)
	if _, err := ValidateJSON(drifted); err == nil {
		t.Error("unknown key on current-version doc passed")
	} else if !strings.Contains(err.Error(), "schema drift") || !strings.Contains(err.Error(), "relic_field") {
		t.Errorf("drift error unhelpful: %v", err)
	}

	// Same unknown key, old version: the version mismatch must be the
	// reported error, for every old version — not just the ones whose
	// field sets happen to decode cleanly.
	for _, v := range []int{1, 2, 3} {
		generic["schema_version"] = v
		old, _ := json.Marshal(generic)
		_, err := ValidateJSON(old)
		if err == nil {
			t.Fatalf("v%d doc passed a v%d validator", v, SchemaVersion)
		}
		want := fmt.Sprintf("schema version %d, tool expects %d", v, SchemaVersion)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("v%d doc with unknown key reported %q, want version mismatch %q", v, err, want)
		}
	}
}

// TestValidateJSONMissingVersion: a document with no schema_version at
// all says so, rather than reporting a zero-vs-current mismatch.
func TestValidateJSONMissingVersion(t *testing.T) {
	doc := validResultJSON(t)
	var generic map[string]any
	if err := json.Unmarshal(doc, &generic); err != nil {
		t.Fatal(err)
	}
	delete(generic, "schema_version")
	stripped, _ := json.Marshal(generic)
	_, err := ValidateJSON(stripped)
	if err == nil {
		t.Fatal("versionless doc passed")
	}
	if !strings.Contains(err.Error(), "no schema_version") {
		t.Errorf("versionless doc reported %q", err)
	}
}

// TestValidateJSONRefusesAcceptedReplays: the schema gate doubles as
// the security gate — a curve that records a successful replay must
// never validate, so it can never land in BENCH_scenarios.json.
func TestValidateJSONRefusesAcceptedReplays(t *testing.T) {
	res, _, err := RunWith(attackScenario(AdversaryReplay, 0), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res.Points[0].Attacks[0].AcceptedReplays = 1
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	_, err = ValidateJSON(buf.Bytes())
	if err == nil {
		t.Fatal("result with an accepted replay validated")
	}
	if !strings.Contains(err.Error(), "security regression") {
		t.Errorf("accepted-replay rejection unhelpful: %v", err)
	}
}

// TestValidateJSONAttackInvariants: attack points must carry
// accounting with known adversary kinds.
func TestValidateJSONAttackInvariants(t *testing.T) {
	res, _, err := RunWith(attackScenario(AdversaryBabble, 2000), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	marshal := func() []byte {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := ValidateJSON(marshal()); err != nil {
		t.Fatalf("valid attack result rejected: %v", err)
	}

	kind := res.Points[0].Attacks[0].Kind
	res.Points[0].Attacks[0].Kind = "ghost"
	if _, err := ValidateJSON(marshal()); err == nil || !strings.Contains(err.Error(), "unknown adversary kind") {
		t.Errorf("unknown adversary kind: %v", err)
	}
	res.Points[0].Attacks[0].Kind = kind

	res.Points[0].Attacks = nil
	if _, err := ValidateJSON(marshal()); err == nil || !strings.Contains(err.Error(), "no attack accounting") {
		t.Errorf("attack point without accounting: %v", err)
	}
}

// TestWriteCSVAttackColumns: the flat curve carries the aggregated
// attack columns, and a benign row zeroes them rather than omitting.
func TestWriteCSVAttackColumns(t *testing.T) {
	res, _, err := RunWith(attackScenario(AdversaryReplay, 0), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d CSV lines", len(lines))
	}
	header := strings.Split(lines[0], ",")
	row := strings.Split(lines[1], ",")
	if len(header) != len(row) {
		t.Fatalf("header %d columns, row %d", len(header), len(row))
	}
	col := func(name string) string {
		for i, h := range header {
			if h == name {
				return row[i]
			}
		}
		t.Fatalf("no %s column", name)
		return ""
	}
	if col("injected_frames") == "0" {
		t.Error("injected_frames column empty for a replay run")
	}
	if col("rejected_replays") != "3" {
		t.Errorf("rejected_replays = %s, want 3", col("rejected_replays"))
	}
	if col("accepted_replays") != "0" {
		t.Errorf("accepted_replays = %s, want 0", col("accepted_replays"))
	}
	if col("latency_p95_us") == "0.000" {
		t.Error("latency_p95_us column empty")
	}
}
