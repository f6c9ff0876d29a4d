package scenario

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteJSON emits the result as indented JSON.
func WriteJSON(w io.Writer, r *Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// csvHeader is the flattened curve schema — one row per sweep point;
// the per-step breakdown stays in the JSON form.
var csvHeader = []string{
	"name", "workload", "axis", "value", "error", "errors", "handshakes",
	"latency_mean_us", "latency_p50_us", "latency_p95_us", "latency_min_us", "latency_max_us",
	"workload_time_us", "retries", "failed_attempts", "worst_attempts", "retransmits",
	"message_resends", "integrity_drops", "protocol_drops",
	"bus_dropped", "bus_corrupted", "bus_duplicated", "bus_delayed", "rx_overflow",
	"gateway_forwarded", "gateway_egress_dropped", "gateway_partition_drops", "sim_time_us",
	"injected_frames", "rejected_replays", "accepted_replays",
}

// csvRow flattens one point into its curve row — shared by the
// materialized WriteCSV and the streaming CSVSink, which is what keeps
// their output byte-identical by construction.
func csvRow(name string, workload Workload, p Point) []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	n := strconv.Itoa
	lat := LatencyStats{}
	if p.Latency != nil {
		lat = *p.Latency
	}
	var injected, rejected, accepted int
	for _, a := range p.Attacks {
		injected += a.InjectedFrames
		rejected += a.RejectedAuth + a.RejectedProtocol
		accepted += a.AcceptedReplays
	}
	return []string{
		name, string(workload), string(p.Axis), strconv.FormatFloat(p.Value, 'f', 4, 64),
		p.Error, n(p.Errors), n(p.Handshakes),
		f(lat.MeanUS), f(lat.P50US), f(lat.P95US), f(lat.MinUS), f(lat.MaxUS),
		f(p.WorkloadTimeUS), n(p.Retries), n(p.FailedAttempts), n(p.WorstAttempts), n(p.Retransmits),
		n(p.MessageResends), n(p.IntegrityDrops), n(p.ProtocolDrops),
		n(p.BusDropped), n(p.BusCorrupted), n(p.BusDuplicated), n(p.BusDelayed), n(p.RxOverflow),
		n(p.GatewayForwarded), n(p.GatewayEgressDropped), n(p.GatewayPartitionDrops), f(p.SimTimeUS),
		n(injected), n(rejected), n(accepted),
	}
}

// WriteCSV emits the result's points as a flat CSV curve (RFC 4180
// quoting via encoding/csv, so commas in scenario names stay intact).
func WriteCSV(w io.Writer, r *Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, p := range r.Points {
		if err := cw.Write(csvRow(r.Name, r.Workload, p)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ValidateJSON is the schema-drift gate used by the CI smoke job: it
// re-decodes an emitted result with unknown fields forbidden (so an
// extra field in the file fails loudly, for every schema version —
// the version check runs on a lenient first pass so an old document
// reports its version mismatch instead of whichever unknown key the
// strict decoder trips on first), rejects trailing content after the
// result document, and checks the structural invariants a consumer of
// the curve relies on (so a missing or renamed field fails too). On
// attack-workload results it additionally refuses any point with
// accepted replays: a curve claiming a successful replay is a
// security regression, not a measurement. It returns the decoded
// result on success, with an empty attack or phase list nil, as
// WriteJSON omits it. Pure function of its input — safe as a CI gate.
func ValidateJSON(data []byte) (*Result, error) {
	// Version first, leniently: version mismatches must report as
	// version mismatches regardless of which fields came or went.
	var version struct {
		SchemaVersion *int `json:"schema_version"`
	}
	// A Decoder stops after the first value, so trailing garbage is
	// diagnosed by the dedicated check below, not mislabelled as drift.
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&version); err != nil {
		return nil, fmt.Errorf("scenario: schema drift: %w", err)
	}
	if version.SchemaVersion == nil {
		return nil, fmt.Errorf("scenario: result has no schema_version")
	}
	if *version.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("scenario: schema version %d, tool expects %d", *version.SchemaVersion, SchemaVersion)
	}

	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Result
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("scenario: schema drift: %w", err)
	}
	// A JSON decoder stops at the end of the first value; anything
	// after it would be silently ignored — reject it instead, the file
	// is supposed to be exactly one result document.
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("scenario: trailing content after the result document")
	}
	if r.Name == "" {
		return nil, fmt.Errorf("scenario: result has no name")
	}
	switch r.Workload {
	case WorkloadLatency, WorkloadBringup, WorkloadChurn, WorkloadAttack, WorkloadDayInLife:
	default:
		return nil, fmt.Errorf("scenario: unknown workload %q", r.Workload)
	}
	attack := r.Workload == WorkloadAttack || r.Workload == WorkloadDayInLife
	if len(r.Points) == 0 {
		return nil, fmt.Errorf("scenario: result has no points")
	}
	for i, p := range r.Points {
		// An explicit [] decodes as the omitted list WriteJSON writes,
		// so the result survives its own rewrite.
		if len(p.Attacks) == 0 {
			r.Points[i].Attacks = nil
		}
		if len(p.Phases) == 0 {
			r.Points[i].Phases = nil
		}
		if p.Axis == "" {
			return nil, fmt.Errorf("scenario: point %d has no axis", i)
		}
		if p.Error != "" {
			// A recorded point failure carries no measurements by
			// definition; the structural invariants below don't apply.
			continue
		}
		if p.Handshakes == 0 && p.Errors == 0 {
			return nil, fmt.Errorf("scenario: point %d measured nothing", i)
		}
		if (r.Workload == WorkloadLatency || attack) && p.Errors < r.Peers && p.Latency == nil {
			return nil, fmt.Errorf("scenario: latency point %d has no latency stats", i)
		}
		if attack {
			// Only the attack workload promises adversaries;
			// day-in-the-life runs adversary-free too (the benign duty
			// cycle), so its points may legitimately carry no accounting.
			if r.Workload == WorkloadAttack && len(p.Attacks) == 0 {
				return nil, fmt.Errorf("scenario: attack point %d has no attack accounting", i)
			}
			for _, a := range p.Attacks {
				switch a.Kind {
				case AdversaryReplay, AdversaryInject, AdversaryBabble, AdversaryPartition:
				default:
					return nil, fmt.Errorf("scenario: point %d reports unknown adversary kind %q", i, a.Kind)
				}
				if a.AcceptedReplays != 0 {
					return nil, fmt.Errorf("scenario: point %d accepted %d replayed sessions — security regression", i, a.AcceptedReplays)
				}
			}
		}
		if r.Workload == WorkloadDayInLife && len(p.Phases) == 0 {
			return nil, fmt.Errorf("scenario: day-in-the-life point %d has no phase times", i)
		}
		if p.Handshakes > 0 && len(p.Steps) == 0 {
			return nil, fmt.Errorf("scenario: point %d has no per-step accounting", i)
		}
		for _, sc := range p.Steps {
			if sc.Step == "" {
				return nil, fmt.Errorf("scenario: point %d has an unlabelled step row", i)
			}
		}
	}
	return &r, nil
}
