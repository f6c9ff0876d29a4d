package transport

import (
	"bytes"
	"testing"
)

// FuzzMessageTrailer targets the optional CRC-32 message trailer and
// the application-layer codec under it. Properties: nothing panics on
// arbitrary bytes; append→verify round-trips any payload; a verifying
// input is exactly reproduced by re-appending its own checksum; and a
// decodable message re-encodes byte-exactly.
func FuzzMessageTrailer(f *testing.F) {
	// A well-formed message with a valid trailer.
	f.Add(appendChecksum(Message{CommCode: 1, SessionID: 7, OpCode: 2, Payload: []byte("hello")}.Encode()))
	// Truncated trailer, empty input, trailer-only input.
	f.Add([]byte{0x01, 0x02})
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	// Valid header, corrupted checksum.
	bad := appendChecksum(Message{CommCode: 9, SessionID: 1, OpCode: 4, Payload: []byte("x")}.Encode())
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Round trip: any bytes survive append→verify unchanged.
		sealed := appendChecksum(data)
		body, ok := verifyChecksum(sealed)
		if !ok || !bytes.Equal(body, data) {
			t.Fatalf("checksum round trip failed for %d bytes", len(data))
		}

		// Arbitrary bytes through the verifier: no panic, and success
		// implies self-consistency.
		if stripped, ok := verifyChecksum(data); ok {
			if !bytes.Equal(appendChecksum(stripped), data) {
				t.Fatal("verified input not reproduced by its own checksum")
			}
			if msg, err := DecodeMessage(stripped); err == nil {
				if !bytes.Equal(msg.Encode(), stripped) {
					t.Fatal("decoded message did not re-encode byte-exactly")
				}
			}
		}

		// The raw codec path (an endpoint without Config.Checksum).
		if msg, err := DecodeMessage(data); err == nil {
			if !bytes.Equal(msg.Encode(), data) {
				t.Fatal("raw decode/encode round trip diverged")
			}
		}
	})
}
