package ec

import (
	"errors"
	"fmt"
	"math/big"
)

// Point is an affine curve point. The point at infinity (the group
// identity) is represented by nil coordinates; use Infinity and
// IsInfinity rather than constructing it by hand.
type Point struct {
	X, Y *big.Int
}

// Infinity returns the group identity.
func Infinity() Point { return Point{} }

// IsInfinity reports whether p is the group identity.
func (p Point) IsInfinity() bool { return p.X == nil || p.Y == nil }

// Equal reports whether two affine points are the same point.
func (p Point) Equal(q Point) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() && q.IsInfinity()
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	if p.IsInfinity() {
		return Point{}
	}
	return Point{X: new(big.Int).Set(p.X), Y: new(big.Int).Set(p.Y)}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	if p.IsInfinity() {
		return "(∞)"
	}
	return fmt.Sprintf("(%x, %x)", p.X, p.Y)
}

// Neg returns −p on curve c.
func (c *Curve) Neg(p Point) Point {
	if p.IsInfinity() {
		return Point{}
	}
	return Point{X: new(big.Int).Set(p.X), Y: modNeg(p.Y, c.P)}
}

// Add returns p + q using the affine group law via Jacobian coordinates.
func (c *Curve) Add(p, q Point) Point {
	if c.useFP() {
		return c.addFP(p, q)
	}
	return c.addBig(p, q)
}

// addBig is the math/big group addition (differential oracle).
func (c *Curve) addBig(p, q Point) Point {
	jp := c.toJacobian(p)
	jq := c.toJacobian(q)
	return c.fromJacobian(c.jacAdd(jp, jq))
}

// Double returns 2p.
func (c *Curve) Double(p Point) Point {
	if c.useFP() {
		return c.doubleFP(p)
	}
	return c.doubleBig(p)
}

// doubleBig is the math/big doubling (differential oracle).
func (c *Curve) doubleBig(p Point) Point {
	return c.fromJacobian(c.jacDouble(c.toJacobian(p)))
}

// Sub returns p − q.
func (c *Curve) Sub(p, q Point) Point {
	return c.Add(p, c.Neg(q))
}

// Point encoding (SEC 1, §2.3.3/§2.3.4).

const (
	prefixInfinity     = 0x00
	prefixCompressed0  = 0x02
	prefixCompressed1  = 0x03
	prefixUncompressed = 0x04
)

// EncodeUncompressed serializes p as 0x04 ‖ X ‖ Y (1 + 2·ByteLen bytes).
// The point at infinity encodes as the single byte 0x00.
func (c *Curve) EncodeUncompressed(p Point) []byte {
	if p.IsInfinity() {
		return []byte{prefixInfinity}
	}
	out := make([]byte, 1+2*c.byteLen)
	out[0] = prefixUncompressed
	p.X.FillBytes(out[1 : 1+c.byteLen])
	p.Y.FillBytes(out[1+c.byteLen:])
	return out
}

// EncodeCompressed serializes p as (0x02|0x03) ‖ X (1 + ByteLen bytes),
// the format used for the paper's 101-byte minimal certificates.
func (c *Curve) EncodeCompressed(p Point) []byte {
	if p.IsInfinity() {
		return []byte{prefixInfinity}
	}
	out := make([]byte, 1+c.byteLen)
	out[0] = prefixCompressed0 | byte(p.Y.Bit(0))
	p.X.FillBytes(out[1:])
	return out
}

// ErrInvalidPoint is returned when decoding rejects a byte string.
var ErrInvalidPoint = errors.New("ec: invalid point encoding")

// DecodePoint parses either a compressed or uncompressed SEC 1 point
// and verifies curve membership.
func (c *Curve) DecodePoint(data []byte) (Point, error) {
	if len(data) == 0 {
		return Point{}, ErrInvalidPoint
	}
	switch data[0] {
	case prefixInfinity:
		if len(data) != 1 {
			return Point{}, ErrInvalidPoint
		}
		return Point{}, nil
	case prefixUncompressed:
		if len(data) != 1+2*c.byteLen {
			return Point{}, fmt.Errorf("%w: length %d for uncompressed %s point",
				ErrInvalidPoint, len(data), c.Name)
		}
		x := new(big.Int).SetBytes(data[1 : 1+c.byteLen])
		y := new(big.Int).SetBytes(data[1+c.byteLen:])
		p := Point{X: x, Y: y}
		if !c.IsOnCurve(p) {
			return Point{}, fmt.Errorf("%w: not on %s", ErrInvalidPoint, c.Name)
		}
		return p, nil
	case prefixCompressed0, prefixCompressed1:
		if len(data) != 1+c.byteLen {
			return Point{}, fmt.Errorf("%w: length %d for compressed %s point",
				ErrInvalidPoint, len(data), c.Name)
		}
		x := new(big.Int).SetBytes(data[1:])
		if x.Cmp(c.P) >= 0 {
			return Point{}, fmt.Errorf("%w: x out of range", ErrInvalidPoint)
		}
		y, err := c.liftX(x, uint(data[0]&1))
		if err != nil {
			return Point{}, err
		}
		return Point{X: x, Y: y}, nil
	}
	return Point{}, fmt.Errorf("%w: unknown prefix 0x%02x", ErrInvalidPoint, data[0])
}

// liftX recovers y from a reduced x and the parity bit yBit, per SEC 1
// §2.3.4. The square root runs on the fp backend when the prime allows
// the one-exponentiation root (p ≡ 3 mod 4: P-256 and P-192); P-224
// and the math/big oracle build take rhsSqrtBig. Both yield the same
// root, so the parity fix-up below sees identical input either way.
func (c *Curve) liftX(x *big.Int, yBit uint) (*big.Int, error) {
	var y *big.Int
	var ok bool
	if c.useFP() && c.P.Bit(1) == 1 {
		y, ok = c.rhsSqrtFP(x)
	} else {
		y, ok = c.rhsSqrtBig(x)
	}
	if !ok {
		return nil, fmt.Errorf("%w: x has no curve point", ErrInvalidPoint)
	}
	if y.Bit(0) != yBit {
		y = modNeg(y, c.P)
	}
	return y, nil
}

// rhsSqrtBig returns a square root of x³ + ax + b mod p through
// math/big, and false when there is none (the differential oracle of
// rhsSqrtFP).
func (c *Curve) rhsSqrtBig(x *big.Int) (*big.Int, bool) {
	rhs := modMul(modSqr(x, c.P), x, c.P)
	rhs = modAdd(rhs, modMul(c.A, x, c.P), c.P)
	rhs = modAdd(rhs, c.B, c.P)
	y, err := modSqrt(rhs, c.P)
	return y, err == nil
}

// CompressedPointSize returns the byte length of a compressed point on c.
func (c *Curve) CompressedPointSize() int { return 1 + c.byteLen }

// UncompressedPointSize returns the byte length of an uncompressed point on c.
func (c *Curve) UncompressedPointSize() int { return 1 + 2*c.byteLen }
