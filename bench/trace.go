package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/transport"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the public function it calls. Ids index the
// tracer's span slice; parent -1 marks a top-level span. req is the
// workload's request index (op, wave, conversation or point) and lane
// the display track in the Chrome trace: concurrent spans of one wave
// get distinct lanes.
type span struct {
	name       string
	parent     int32
	req        int32
	lane       int32
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for the traced pass. A nil *tracer is
// the untraced pass: every method is a no-op, so the workloads run one
// code path in both passes.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, req, lane int) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, req: int32(req), lane: int32(lane), start: time.Since(t.epoch)})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = time.Since(t.epoch)
}

// durations returns the duration of every span named name, in µs.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/float64(time.Microsecond))
		}
	}
	return out
}

// total sums the durations of every span named name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.name == name {
			sum += s.end - s.start
		}
	}
	return sum
}

// topLevel sums the durations of the spans without a parent.
func (t *tracer) topLevel() time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.parent < 0 {
			sum += s.end - s.start
		}
	}
	return sum
}

// engineTime returns, per span id, the summed duration of the engine
// calls directly under it.
func (t *tracer) engineTime() []time.Duration {
	out := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && isEngineStep(s.name) {
			out[s.parent] += s.end - s.start
		}
	}
	return out
}

// engineSteps are the spans around the STS engine's calls, in protocol
// order: A1 is Initiator.Start, B1 the responder's answer to A1, A2 the
// initiator's answer to B1 (extraction and verification of B), B2 the
// responder's check of A2, and fin the initiator's acceptance of B2.
var engineSteps = []string{"core.a1", "core.b1", "core.a2", "core.b2", "core.fin"}

// isEngineStep reports whether a span times an engine call; core.extra
// covers hops past the four STS messages, which no variant sends.
func isEngineStep(name string) bool {
	for _, s := range engineSteps {
		if s == name {
			return true
		}
	}
	return name == "core.extra"
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, viewable in Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON.
func (t *tracer) writeChrome(w io.Writer) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name,
			Ph:   "X",
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			PID:  1,
			TID:  s.lane,
			Args: map[string]any{"id": i, "parent": s.parent, "req": s.req},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}

// maxHops bounds one exchange like fleet's carriers: STS needs four
// messages, so eight hops is generous.
const maxHops = 8

// spanCarrier is the benchmark's fleet.Carrier for traced passes. With
// a nil link it reproduces the Manager's in-process exchange; with a
// link it reproduces fleet.NetCarrier over the simulated fabric. Either
// way it records a span around every engine call and fabric call,
// under one exchange span whose parent is the caller's current request
// span. The Manager asks its carrier factory for a carrier at every
// attempt, so the factory hands over the current request by value.
type spanCarrier struct {
	tr     *tracer
	parent int32
	req    int
	lane   int

	link          *transport.Link
	local, remote *transport.Endpoint
	sessionID     uint16
}

var _ fleet.Carrier = (*spanCarrier)(nil)

// Exchange runs one handshake attempt between the engines.
func (c *spanCarrier) Exchange(init *core.Initiator, resp *core.Responder) error {
	ex := c.tr.begin("fleet.exchange", c.parent, c.req, c.lane)
	defer c.tr.end(ex)
	step := func(i int) string {
		if i < len(engineSteps) {
			return engineSteps[i]
		}
		return "core.extra"
	}
	call := func(name string, fn func() error) error {
		id := c.tr.begin(name, ex, c.req, c.lane)
		err := fn()
		c.tr.end(id)
		return err
	}

	if c.link != nil {
		c.link.World.Acquire()
		defer c.link.World.Release()
		_ = call("transport.flush", func() error {
			c.link.World.Run()
			c.local.Flush()
			c.remote.Flush()
			return nil
		})
	}

	var msg []byte
	if err := call(step(0), func() (err error) { msg, err = init.Start(); return err }); err != nil {
		return err
	}
	for hop := 0; hop < maxHops; hop++ {
		var err error
		if msg, err = c.deliver(call, c.local, c.remote, msg); err != nil {
			return fmt.Errorf("deliver to responder: %w", err)
		}
		var reply []byte
		if err := call(step(2*hop+1), func() (err error) { reply, _, err = resp.Handle(msg); return err }); err != nil {
			return fmt.Errorf("responder: %w", err)
		}
		if reply == nil {
			return nil
		}
		if reply, err = c.deliver(call, c.remote, c.local, reply); err != nil {
			return fmt.Errorf("deliver to initiator: %w", err)
		}
		var done bool
		if err := call(step(2*hop+2), func() (err error) { msg, done, err = init.Handle(reply); return err }); err != nil {
			return fmt.Errorf("initiator: %w", err)
		}
		if done {
			return nil
		}
	}
	return errors.New("handshake did not converge")
}

// deliver moves one engine message across the fabric (a no-op for the
// in-process exchange), framed exactly as fleet.NetCarrier frames it.
func (c *spanCarrier) deliver(call func(string, func() error) error, src, dst *transport.Endpoint, payload []byte) ([]byte, error) {
	if c.link == nil {
		return payload, nil
	}
	var got transport.Message
	err := call("transport.deliver", func() (err error) {
		got, err = c.link.Deliver(src, dst, handshakeMessage(c.sessionID, payload))
		return err
	})
	return got.Payload, err
}

// handshakeMessage frames an engine message like fleet.NetCarrier.
func handshakeMessage(sessionID uint16, payload []byte) transport.Message {
	m := transport.Message{CommCode: fleet.HandshakeCommCode, SessionID: sessionID, Payload: payload}
	if len(payload) > 0 {
		m.OpCode = payload[0]
	}
	return m
}
