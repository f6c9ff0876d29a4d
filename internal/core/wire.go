package core

import (
	"errors"
	"fmt"

	"repro/internal/ec"
	"repro/internal/ecqv"
)

// Wire codecs for the STS handshake: the byte-level message formats a
// deployment actually sends. Each message is a one-byte step code
// followed by the fixed-width fields of Table II (sizes derived from
// the curve, so P-224/P-192 deployments shrink accordingly).

// Step codes on the wire.
const (
	wireA1 byte = 0x01
	wireB1 byte = 0x02
	wireA2 byte = 0x03
	wireB2 byte = 0x04
)

var labelToCode = map[string]byte{"A1": wireA1, "B1": wireB1, "A2": wireA2, "B2": wireB2}
var codeToLabel = map[byte]string{wireA1: "A1", wireB1: "B1", wireA2: "A2", wireB2: "B2"}

// StepLabel maps a wire step code — the first byte of every handshake
// message, which the session transport carries as its OpCode — to the
// Table II step label ("A1", "B1", "A2", "B2"). ok is false for codes
// outside the STS protocol. The degraded-bus measurement workloads use
// it to attribute retransmission overhead to protocol steps.
func StepLabel(code byte) (label string, ok bool) {
	label, ok = codeToLabel[code]
	return label, ok
}

// stsLayout returns the field layout of an STS step for a curve and
// optimization level — the one statement of the Table II layout, which
// STS.Spec reads on P-256. The optimized variants front-load Cert_A
// into A1; the totals are unchanged. It returns nil for a label
// outside the protocol.
func stsLayout(curve *ec.Curve, opt STSOptimization, label string) []FieldSpec {
	certSize := ecqv.EncodedSize(curve)
	ecSize := 2 * curve.ByteLen()
	switch label {
	case "A1":
		if opt == OptNone {
			return []FieldSpec{{"ID", ecqv.IDSize}, {"XG", ecSize}}
		}
		return []FieldSpec{{"ID", ecqv.IDSize}, {"Cert", certSize}, {"XG", ecSize}}
	case "B1":
		return []FieldSpec{{"ID", ecqv.IDSize}, {"Cert", certSize}, {"XG", ecSize}, {"Resp", ecSize}}
	case "A2":
		if opt == OptNone {
			return []FieldSpec{{"Cert", certSize}, {"Resp", ecSize}}
		}
		return []FieldSpec{{"Resp", ecSize}}
	case "B2":
		return []FieldSpec{{"ACK", ackSize}}
	}
	return nil
}

// EncodeSTSMessage serializes a transcript message to wire bytes.
func EncodeSTSMessage(msg WireMessage) ([]byte, error) {
	code, ok := labelToCode[msg.Label]
	if !ok {
		return nil, fmt.Errorf("core: no wire code for step %q", msg.Label)
	}
	out := []byte{code}
	for _, f := range msg.Field {
		out = append(out, f.Bytes...)
	}
	return out, nil
}

// ErrWireFormat wraps all wire decoding failures.
var ErrWireFormat = errors.New("core: malformed handshake message")

// DecodeSTSMessage parses wire bytes into a transcript message, with
// strict length checking against the expected layout.
func DecodeSTSMessage(curve *ec.Curve, opt STSOptimization, data []byte) (WireMessage, error) {
	if len(data) == 0 {
		return WireMessage{}, fmt.Errorf("%w: empty", ErrWireFormat)
	}
	label, ok := codeToLabel[data[0]]
	if !ok {
		return WireMessage{}, fmt.Errorf("%w: unknown step code %#x", ErrWireFormat, data[0])
	}
	layout := stsLayout(curve, opt, label)
	want := 1
	for _, f := range layout {
		want += f.Size
	}
	if len(data) != want {
		return WireMessage{}, fmt.Errorf("%w: step %s has %d bytes, want %d",
			ErrWireFormat, label, len(data), want)
	}
	msg := WireMessage{Label: label}
	if label[0] == 'A' {
		msg.From = RoleA
	} else {
		msg.From = RoleB
	}
	off := 1
	for _, f := range layout {
		msg.Field = append(msg.Field, Field{
			Name:  f.Name,
			Bytes: append([]byte(nil), data[off:off+f.Size]...),
		})
		off += f.Size
	}
	return msg, nil
}
