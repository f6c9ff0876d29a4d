// Package cantp implements the ISO 15765-2 transport protocol
// ("CAN-TP" / ISO-TP) over CAN-FD: segmentation of application
// messages into SingleFrame / FirstFrame / ConsecutiveFrame sequences
// with FlowControl handshakes, and the matching reassembly state
// machine.
//
// The paper's prototype (§V-C) layers exactly this stack under the
// session protocol: "The test suite uses the CAN-FD derivation with an
// implemented CAN-TP layer for message fragmentation [20]". Certificate
// and signature payloads (101–300 bytes) do not fit a single 64-byte
// CAN-FD frame, so every protocol message of Table II crosses this
// layer.
package cantp

import (
	"errors"
	"fmt"

	"repro/internal/canbus"
)

// PCI frame types (ISO 15765-2 §9.4).
const (
	pciSingle byte = 0x0
	pciFirst  byte = 0x1
	pciConsec byte = 0x2
	pciFlow   byte = 0x3
)

// FlowStatus values carried by FlowControl frames.
type FlowStatus byte

const (
	// FlowContinue clears the sender to transmit the next block.
	FlowContinue FlowStatus = 0
	// FlowWait asks the sender to pause.
	FlowWait FlowStatus = 1
	// FlowOverflow aborts the transfer.
	FlowOverflow FlowStatus = 2
)

// frameLen is the CAN-FD payload size used for all TP frames.
const frameLen = canbus.MaxDataLen

// MaxMessageLen is the largest message expressible by the 12-bit
// FirstFrame length field used here (the escape to 32-bit lengths is
// not needed by any protocol message of the paper).
const MaxMessageLen = 0xFFF

// maxSingle is the largest payload of an FD SingleFrame with the
// escape PCI (byte0 = 0x00, byte1 = length).
const maxSingle = frameLen - 2

// Errors surfaced by Receiver.Push.
var (
	ErrTooLong       = fmt.Errorf("cantp: message exceeds %d bytes", MaxMessageLen)
	ErrUnexpected    = errors.New("cantp: unexpected frame for reassembly state")
	ErrBadSequence   = errors.New("cantp: consecutive frame sequence error")
	ErrBadPCI        = errors.New("cantp: malformed protocol control information")
	ErrLengthInvalid = errors.New("cantp: length field invalid")
)

// segment splits msg into ISO-TP frame payloads for Sender. The first
// returned payload is a SingleFrame when the whole message fits,
// otherwise a FirstFrame followed by ConsecutiveFrames. FlowControl
// frames come from the receiving side (Receiver.Push answers each
// FirstFrame); segment produces only the sender's data frames.
func segment(msg []byte) ([][]byte, error) {
	if len(msg) > MaxMessageLen {
		return nil, ErrTooLong
	}
	if len(msg) <= maxSingle {
		// FD single frame, escape form: [0x00, len, data...].
		out := make([]byte, 2+len(msg))
		out[0] = pciSingle << 4
		out[1] = byte(len(msg))
		copy(out[2:], msg)
		return [][]byte{out}, nil
	}

	// FirstFrame: [0x1L, LL, data...], 12-bit length, 62 data bytes.
	frames := make([][]byte, 0, 1+(len(msg)-maxSingle)/(frameLen-1)+1)
	ff := make([]byte, frameLen)
	ff[0] = pciFirst<<4 | byte(len(msg)>>8)
	ff[1] = byte(len(msg))
	n := copy(ff[2:], msg)
	frames = append(frames, ff)
	rest := msg[n:]

	seq := byte(1)
	for len(rest) > 0 {
		take := frameLen - 1
		if take > len(rest) {
			take = len(rest)
		}
		cf := make([]byte, 1+take)
		cf[0] = pciConsec<<4 | seq
		copy(cf[1:], rest[:take])
		frames = append(frames, cf)
		rest = rest[take:]
		seq = (seq + 1) & 0x0F
	}
	return frames, nil
}

// FlowControlFrame builds a FlowControl payload with the given status,
// block size and minimum separation time (raw STmin byte).
func FlowControlFrame(status FlowStatus, blockSize, stMin byte) []byte {
	return []byte{pciFlow<<4 | byte(status), blockSize, stMin}
}

// ParseFlowControl decodes a FlowControl payload.
func ParseFlowControl(data []byte) (FlowStatus, byte, byte, error) {
	if len(data) < 3 || data[0]>>4 != pciFlow {
		return 0, 0, 0, ErrBadPCI
	}
	status := FlowStatus(data[0] & 0x0F)
	if status > FlowOverflow {
		return 0, 0, 0, fmt.Errorf("%w: flow status %d", ErrBadPCI, status)
	}
	return status, data[1], data[2], nil
}

// FrameCount returns how many data frames a Sender transmits for a
// message of length n on a lossless link, plus whether a FlowControl
// exchange occurs (a Receiver answers the FirstFrame with one
// FlowControl that clears the whole remainder).
// Used by the overhead accounting of Table II and the Fig. 7 timeline.
func FrameCount(n int) (dataFrames int, flowControl bool, err error) {
	if n > MaxMessageLen {
		return 0, false, ErrTooLong
	}
	if n <= maxSingle {
		return 1, false, nil
	}
	rest := n - (frameLen - 2)
	cf := (rest + frameLen - 2) / (frameLen - 1)
	return 1 + cf, true, nil
}
