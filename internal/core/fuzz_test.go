package core

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"repro/internal/ec"
)

// FuzzSTSEngine fuzzes the engine's peer-input boundary, the parser
// every STS path — STS.Run included — reads peer bytes through. Each
// input runs an honest P-256 exchange in one variant (opt mod 3) with
// one of A1, B1 or A2 (step mod 3) replaced on the wire: by the
// genuine message with one bit flipped (bit mod its length in bits),
// or, when replace is set, by data verbatim. The properties:
//
//   - no panic;
//   - every error is typed: ErrWireFormat, ErrHandshakeState or
//     ErrHandshakeAuth;
//   - no run ends with both sides done when the replaced message
//     differs from the genuine one.
//
// B2, the 1-byte unauthenticated ACK of Table II, is never replaced.
// The committed corpus (testdata/fuzz/FuzzSTSEngine) holds a bit flip
// into one field and one whole replacement for each variant × step.
func FuzzSTSEngine(f *testing.F) {
	net, err := NewNetwork(ec.P256(), newDetRand(31))
	if err != nil {
		f.Fatal(err)
	}
	a, b, err := net.Pair("alice", "bob")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, opt, step uint8, replace bool, bit uint16, data []byte) {
		variant := STSOptimization(opt % 3)
		// Fixed per-run randomness makes every input reproducible.
		init, err := NewInitiator(a.CloneWithRand(newDetRand(1)), variant)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := NewResponder(b.CloneWithRand(newDetRand(2)), variant)
		if err != nil {
			t.Fatal(err)
		}

		var genuine, sent []byte
		wire := func(i int, msg []byte) []byte {
			if i != int(step%3) {
				return msg
			}
			genuine, sent = msg, data
			if !replace {
				sent = append([]byte(nil), msg...)
				n := int(bit) % (8 * len(sent))
				sent[n/8] ^= 1 << (n % 8)
			}
			return sent
		}

		msg, err := init.Start()
		if err != nil {
			t.Fatal(err)
		}
		// Messages i = 0..3 are A1, B1, A2, B2: B handles the even
		// ones, A the odd ones.
		var doneA, doneB bool
		for i := 0; i < 4 && err == nil; i++ {
			if i%2 == 0 {
				msg, doneB, err = resp.Handle(wire(i, msg))
			} else {
				msg, doneA, err = init.Handle(wire(i, msg))
			}
		}
		if err != nil {
			if !errors.Is(err, ErrWireFormat) && !errors.Is(err, ErrHandshakeState) && !errors.Is(err, ErrHandshakeAuth) {
				t.Fatalf("untyped engine error: %v", err)
			}
			return
		}
		if !doneA || !doneB {
			t.Fatalf("%s: exchange ended with neither an error nor completion", variant)
		}
		if !bytes.Equal(sent, genuine) {
			t.Fatalf("%s: both sides done after message %d was replaced", variant, step%3)
		}
	})
}

// FuzzDecodePointRaw feeds peer bytes to decodePointRaw, the parser of
// every ephemeral XG an STS peer sends, on every bundled curve. A
// rejection must wrap ec.ErrInvalidPoint, and the decoder must accept
// exactly the inputs that the math/big oracle (onCurveBig) puts on the
// curve; an accepted point must re-encode to the input bytes.
//
// The committed corpus (testdata/fuzz/FuzzDecodePointRaw) names the
// P-256 and P-224 generators, a byte short and a byte long, x = p with
// the P-256 generator's y, and the P-256 generator with y + 1 (off the
// curve).
func FuzzDecodePointRaw(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range ec.Curves() {
			p, err := decodePointRaw(c, data)
			valid := len(data) == 2*c.ByteLen() &&
				onCurveBig(c, new(big.Int).SetBytes(data[:c.ByteLen()]), new(big.Int).SetBytes(data[c.ByteLen():]))
			if err != nil {
				if !errors.Is(err, ec.ErrInvalidPoint) {
					t.Fatalf("%s: decodePointRaw(%x): error %v does not wrap ec.ErrInvalidPoint", c.Name, data, err)
				}
				if valid {
					t.Fatalf("%s: decodePointRaw(%x) rejected a point on the curve: %v", c.Name, data, err)
				}
				continue
			}
			if !valid || !onCurveBig(c, p.X, p.Y) {
				t.Fatalf("%s: decodePointRaw(%x) accepted %v, which is not on the curve", c.Name, data, p)
			}
			if enc := encodePointRaw(c, p); !bytes.Equal(enc, data) {
				t.Fatalf("%s: decodePointRaw(%x) re-encodes as %x", c.Name, data, enc)
			}
		}
	})
}

// onCurveBig is the math/big oracle of curve membership: x and y
// reduced, and y² ≡ x³ + a·x + b (mod p).
func onCurveBig(c *ec.Curve, x, y *big.Int) bool {
	if x.Cmp(c.P) >= 0 || y.Cmp(c.P) >= 0 {
		return false
	}
	lhs := new(big.Int).Mul(y, y)
	rhs := new(big.Int).Mul(x, x)
	rhs.Add(rhs, c.A).Mul(rhs, x).Add(rhs, c.B)
	return lhs.Sub(lhs, rhs).Mod(lhs, c.P).Sign() == 0
}
