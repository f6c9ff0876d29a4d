package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// FuzzValidateJSON feeds arbitrary bytes to ValidateJSON, the gate that
// every result file passes before it lands in BENCH_scenarios.json.
// The properties: no panic, and an accepted document, written back
// out with WriteJSON from the returned Result, is accepted again with
// a reflect.DeepEqual result.
//
// The seeds are built here, so that they follow the schema: the JSON
// of a small latency run, its first half, the run without its closing
// brace, the run one schema_version back, the run followed by a second
// document, the run with empty attack and phase lists spelled out, and
// a replay-attack run that claims an accepted replay.
func FuzzValidateJSON(f *testing.F) {
	doc := validResultJSON(f)
	f.Add(doc)
	f.Add(doc[:len(doc)/2])
	f.Add(doc[:bytes.LastIndexByte(doc, '}')])
	version := func(v int) []byte { return fmt.Appendf(nil, `"schema_version": %d`, v) }
	old := bytes.Replace(doc, version(SchemaVersion), version(SchemaVersion-1), 1)
	if bytes.Equal(old, doc) {
		f.Fatalf("no %s in the seed document", version(SchemaVersion))
	}
	f.Add(old)
	f.Add(append(append([]byte(nil), doc...), "{}"...))
	f.Add(spellEmptyLists(f, doc))
	res, _, err := RunWith(attackScenario(AdversaryReplay, 0), Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	res.Points[0].Attacks[0].AcceptedReplays = 1
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ValidateJSON(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteJSON(&out, r); err != nil {
			t.Fatalf("WriteJSON of an accepted result: %v", err)
		}
		again, err := ValidateJSON(out.Bytes())
		if err != nil {
			t.Fatalf("accepted %q, but not its own rewrite %q: %v", data, out.Bytes(), err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("accepted %q as %+v, its rewrite as %+v", data, r, again)
		}
	})
}
