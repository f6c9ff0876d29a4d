package scenario

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// Header is the scenario-level preamble a streaming run hands to every
// sink before the first point: exactly Result minus its points, with
// matching JSON tags so an incremental JSON sink can splice its bytes
// into the same document WriteJSON would produce.
type Header struct {
	SchemaVersion int      `json:"schema_version"`
	Name          string   `json:"name"`
	Workload      Workload `json:"workload"`
	Seed          uint64   `json:"seed"`
	Peers         int      `json:"peers"`
	Segments      int      `json:"segments"`
	Axis          Axis     `json:"axis"`

	// NumPoints is how many points the sweep will emit — capacity
	// advice for collecting sinks, not part of the document.
	NumPoints int `json:"-"`
}

// Summary closes a streaming run: the totals a sink may want for a
// footer or a sanity check once the last point has been flushed.
type Summary struct {
	// Points is the number of points emitted (always Header.NumPoints
	// on a successful run).
	Points int
	// Failed is how many of them recorded a point-level Error.
	Failed int
	// MaxReorderDepth is the peak number of completed points the
	// ordered emitter held while waiting for an earlier point — the
	// run's peak memory residency in points, bounded by
	// workers + ReorderSlack.
	MaxReorderDepth int
}

// PointSink consumes a streaming run's results incrementally: Begin
// once, then Point for every sweep point in index order (i strictly
// increasing, no gaps), then End once — End is only called when every
// point was delivered without a sink error. Calls are serialized by
// the emitter, so implementations need no locking. Any returned error
// aborts the whole run.
//
// trace carries the point's private trace bytes when the sink is a
// *TraceSink; every other sink receives nil.
type PointSink interface {
	Begin(h Header) error
	Point(i int, pt Point, trace []byte) error
	End(sum Summary) error
}

// JSONSink streams a Result as indented JSON, byte-identical to
// WriteJSON over the materialized Result, while holding only the
// current point in memory.
type JSONSink struct {
	w     io.Writer
	wrote int
}

// NewJSONSink returns a sink that writes the result document to w.
func NewJSONSink(w io.Writer) *JSONSink { return &JSONSink{w: w} }

// Begin writes the document preamble: every scenario-level field, then
// an open points array.
func (s *JSONSink) Begin(h Header) error {
	head, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	// MarshalIndent ends the object with "\n}"; reopen it and splice in
	// the points array exactly where WriteJSON's encoder puts it.
	head = head[:len(head)-len("\n}")]
	head = append(head, `,
  "points": [`...)
	_, err = s.w.Write(head)
	return err
}

// Point appends one point to the open array.
func (s *JSONSink) Point(i int, pt Point, _ []byte) error {
	sep := ",\n    "
	if s.wrote == 0 {
		sep = "\n    "
	}
	body, err := json.MarshalIndent(pt, "    ", "  ")
	if err != nil {
		return err
	}
	s.wrote++
	if _, err := io.WriteString(s.w, sep); err != nil {
		return err
	}
	_, err = s.w.Write(body)
	return err
}

// End closes the points array and the document. The trailing newline
// matches json.Encoder's.
func (s *JSONSink) End(Summary) error {
	closing := "\n  ]\n}\n"
	if s.wrote == 0 {
		closing = "]\n}\n"
	}
	_, err := io.WriteString(s.w, closing)
	return err
}

// CSVSink streams the flattened curve, byte-identical to WriteCSV over
// the materialized Result, flushing after every point so a consumer
// tailing the file sees each row as it lands.
type CSVSink struct {
	cw       *csv.Writer
	name     string
	workload Workload
}

// NewCSVSink returns a sink that writes the curve CSV to w.
func NewCSVSink(w io.Writer) *CSVSink { return &CSVSink{cw: csv.NewWriter(w)} }

// Begin writes the header row.
func (s *CSVSink) Begin(h Header) error {
	s.name, s.workload = h.Name, h.Workload
	if err := s.cw.Write(csvHeader); err != nil {
		return err
	}
	s.cw.Flush()
	return s.cw.Error()
}

// Point writes one curve row.
func (s *CSVSink) Point(i int, pt Point, _ []byte) error {
	if err := s.cw.Write(csvRow(s.name, s.workload, pt)); err != nil {
		return err
	}
	s.cw.Flush()
	return s.cw.Error()
}

// End flushes any buffered output.
func (s *CSVSink) End(Summary) error {
	s.cw.Flush()
	return s.cw.Error()
}

// TraceSink streams the fault and recovery trace in a stable line
// format: the scenario header line at Begin, then each point's trace —
// one line per injected bus fault, per completed or failed handshake,
// per protocol-step cost row and per point summary. Each point's trace
// accumulates in a private buffer while points run concurrently and
// is written in point order, so with a fixed seed the byte stream is
// the same at every worker count. One caveat the workers do not create
// and cannot fix: with EstablishAll Parallelism > 1 inside a point,
// absolute fault timestamps and trace line order depend on how the
// runtime interleaved the conversations — even two serial runs can
// differ. The Result is schedule-invariant regardless (that is the
// fair-queuing/content-keying contract); byte-stable traces
// additionally need Parallelism ≤ 1.
type TraceSink struct {
	w io.Writer
}

// NewTraceSink returns a sink that writes the trace to w.
func NewTraceSink(w io.Writer) *TraceSink { return &TraceSink{w: w} }

// Begin writes the trace header line.
func (s *TraceSink) Begin(h Header) error {
	_, err := fmt.Fprintf(s.w, "# scenario %s workload=%s seed=%d peers=%d segments=%d axis=%s\n",
		h.Name, h.Workload, h.Seed, h.Peers, h.Segments, h.Axis)
	return err
}

// Point writes the point's trace bytes.
func (s *TraceSink) Point(i int, pt Point, trace []byte) error {
	_, err := s.w.Write(trace)
	return err
}

// End is a no-op; the trace has no footer.
func (s *TraceSink) End(Summary) error { return nil }

// collectSink materializes the streamed points back into a Result —
// how RunWith is built on the streaming engine.
type collectSink struct {
	res *Result
}

func (s *collectSink) Begin(h Header) error {
	s.res = &Result{
		SchemaVersion: h.SchemaVersion,
		Name:          h.Name,
		Workload:      h.Workload,
		Seed:          h.Seed,
		Peers:         h.Peers,
		Segments:      h.Segments,
		Axis:          h.Axis,
		Points:        make([]Point, 0, h.NumPoints),
	}
	return nil
}

func (s *collectSink) Point(i int, pt Point, _ []byte) error {
	s.res.Points = append(s.res.Points, pt)
	return nil
}

func (s *collectSink) End(Summary) error { return nil }

// wantsTrace reports whether any sink is a TraceSink. A run without
// one skips trace generation entirely — the buffers are the expensive
// part.
func wantsTrace(sinks []PointSink) bool {
	for _, s := range sinks {
		if _, ok := s.(*TraceSink); ok {
			return true
		}
	}
	return false
}

// compile-time interface checks for the shipped sinks.
var (
	_ PointSink = (*JSONSink)(nil)
	_ PointSink = (*CSVSink)(nil)
	_ PointSink = (*TraceSink)(nil)
	_ PointSink = (*collectSink)(nil)
)
