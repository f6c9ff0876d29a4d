// Package ec implements prime-field elliptic curve arithmetic for short
// Weierstrass curves y² = x³ + ax + b over GF(p).
//
// The package provides the group operations, scalar multiplication and
// SEC 1 point encodings needed by the ECQV implicit-certificate scheme
// and the ECDSA/STS protocol stack built on top of it. Three NIST prime
// curves are bundled: secp256r1 (P-256), secp224r1 (P-224) and
// secp192r1 (P-192), matching the curves used by the paper's micro-ecc
// based evaluation.
//
// The implementation is a research/simulation substrate: it is
// algorithmically faithful but NOT constant time and must not be used
// to protect real traffic. The fp field kernels select without
// branching, but the point arithmetic here branches on wNAF and comb
// digits, table indices and the infinity and doubling cases.
package ec

import (
	"fmt"
	"math/big"
	"sync"

	"repro/internal/ec/fp"
)

// Curve describes a short Weierstrass curve y² = x³ + ax + b over the
// prime field GF(P) with a base point G of prime order N.
type Curve struct {
	Name    string   // canonical SEC 2 name, e.g. "secp256r1"
	P       *big.Int // field prime
	A       *big.Int // curve coefficient a (−3 mod p for NIST curves)
	B       *big.Int // curve coefficient b
	Gx, Gy  *big.Int // base point
	N       *big.Int // order of the base point
	H       int      // cofactor
	BitSize int      // size of the field in bits

	// byteLen is the length of a field element in bytes.
	byteLen int

	// baseTable caches odd multiples of G (affine, via batch
	// inversion) for wNAF base-point multiplication on the math/big
	// oracle path; built lazily.
	baseOnce  sync.Once
	baseTable []Point

	// aIsMinus3 records whether a ≡ −3 (mod p). newCurve admits no
	// other curve: the fp doubling takes the a = −3 formula
	// unconditionally (the math/big oracle keeps its general branch).
	aIsMinus3 bool

	// fpF is the fixed-limb Montgomery field context of the default
	// backend, with the curve coefficients a and b in Montgomery form
	// alongside. newCurve admits no prime that fp.New rejects.
	fpF      *fp.Field
	fpA, fpB fp.Element

	// nLimbs is N in little-endian limbs, for the limb-only scalar
	// recodings of the fp backend (the signed comb negates even
	// scalars as n − k).
	nLimbs [4]uint64

	// combSpacing is the tooth spacing d = ⌈bitlen(N)/4⌉ of MultTable's
	// signed comb: 64 on P-256, 56 on P-224, 48 on P-192.
	combSpacing int

	// baseWindows is the number W = ⌈(bitlen(N)+1)/5⌉ of signed 5-bit
	// windows of the fixed-base comb: 52, 45 and 39.
	baseWindows int

	// comb is the lazily built fixed-base comb table for ScalarBaseMult
	// (one row of 16 affine points per signed 5-bit scalar window).
	combOnce sync.Once
	comb     []combRow
}

// useFP reports whether the fixed-limb backend serves curves in this
// build.
func (c *Curve) useFP() bool { return !useBigBackend }

// UsesFPBackend reports whether this build selected the fixed-limb
// Montgomery backend (false under -tags ec_purebig). Allocation-budget
// gates in dependent packages only apply to the fp backend; the
// math/big oracle allocates freely by design.
func UsesFPBackend() bool { return !useBigBackend }

// ByteLen returns the length in bytes of a serialized field element
// (and therefore of a coordinate or scalar) on this curve.
func (c *Curve) ByteLen() int { return c.byteLen }

// String implements fmt.Stringer.
func (c *Curve) String() string { return c.Name }

func mustInt(hexStr string) *big.Int {
	v, ok := new(big.Int).SetString(hexStr, 16)
	if !ok {
		panic("ec: bad curve constant " + hexStr)
	}
	return v
}

func newCurve(name string, p, a, b, gx, gy, n string, h, bits int) *Curve {
	c := &Curve{
		Name:    name,
		P:       mustInt(p),
		A:       mustInt(a),
		B:       mustInt(b),
		Gx:      mustInt(gx),
		Gy:      mustInt(gy),
		N:       mustInt(n),
		H:       h,
		BitSize: bits,
	}
	c.byteLen = (bits + 7) / 8
	aPlus3 := new(big.Int).Add(c.A, big.NewInt(3))
	c.aIsMinus3 = aPlus3.Cmp(c.P) == 0
	if !c.aIsMinus3 {
		panic("ec: curve " + name + " does not have a = -3")
	}
	scalarLimbs(c.N, &c.nLimbs)
	c.combSpacing = (c.N.BitLen() + 3) / 4
	c.baseWindows = (c.N.BitLen() + baseWindowBits) / baseWindowBits
	f, err := fp.New(c.P)
	if err != nil {
		panic("ec: curve " + name + " has no fixed-limb field: " + err.Error())
	}
	c.fpF = f
	f.FromBig(&c.fpA, c.A)
	f.FromBig(&c.fpB, c.B)
	return c
}

var (
	p256 = newCurve(
		"secp256r1",
		"ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
		"ffffffff00000001000000000000000000000000fffffffffffffffffffffffc",
		"5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b",
		"6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
		"4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
		"ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551",
		1, 256,
	)
	p224 = newCurve(
		"secp224r1",
		"ffffffffffffffffffffffffffffffff000000000000000000000001",
		"fffffffffffffffffffffffffffffffefffffffffffffffffffffffe",
		"b4050a850c04b3abf54132565044b0b7d7bfd8ba270b39432355ffb4",
		"b70e0cbd6bb4bf7f321390b94a03c1d356c21122343280d6115c1d21",
		"bd376388b5f723fb4c22dfe6cd4375a05a07476444d5819985007e34",
		"ffffffffffffffffffffffffffff16a2e0b8f03e13dd29455c5c2a3d",
		1, 224,
	)
	p192 = newCurve(
		"secp192r1",
		"fffffffffffffffffffffffffffffffeffffffffffffffff",
		"fffffffffffffffffffffffffffffffefffffffffffffffc",
		"64210519e59c80e70fa7e9ab72243049feb8deecc146b9b1",
		"188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012",
		"07192b95ffc8da78631011ed6b24cdd573f977a11e794811",
		"ffffffffffffffffffffffff99def836146bc9b1b4d22831",
		1, 192,
	)
)

// P256 returns the secp256r1 (NIST P-256) curve used throughout the
// paper's evaluation.
func P256() *Curve { return p256 }

// P224 returns the secp224r1 (NIST P-224) curve.
func P224() *Curve { return p224 }

// P192 returns the secp192r1 (NIST P-192) curve.
func P192() *Curve { return p192 }

// CurveByName resolves a SEC 2 curve name to its parameters.
func CurveByName(name string) (*Curve, error) {
	switch name {
	case "secp256r1", "P-256", "p256":
		return p256, nil
	case "secp224r1", "P-224", "p224":
		return p224, nil
	case "secp192r1", "P-192", "p192":
		return p192, nil
	}
	return nil, fmt.Errorf("ec: unknown curve %q", name)
}

// Curves returns all bundled curves, largest first.
func Curves() []*Curve { return []*Curve{p256, p224, p192} }

// Generator returns the curve base point G as an affine point.
func (c *Curve) Generator() Point {
	return Point{X: new(big.Int).Set(c.Gx), Y: new(big.Int).Set(c.Gy)}
}

// IsOnCurve reports whether the affine point (x, y) satisfies the curve
// equation. The point at infinity is not considered on the curve by
// this predicate.
func (c *Curve) IsOnCurve(p Point) bool {
	if p.IsInfinity() {
		return false
	}
	if p.X.Sign() < 0 || p.X.Cmp(c.P) >= 0 || p.Y.Sign() < 0 || p.Y.Cmp(c.P) >= 0 {
		return false
	}
	// y² = x³ + ax + b (mod p)
	y2 := new(big.Int).Mul(p.Y, p.Y)
	y2.Mod(y2, c.P)

	rhs := new(big.Int).Mul(p.X, p.X)
	rhs.Mod(rhs, c.P)
	rhs.Mul(rhs, p.X)
	rhs.Mod(rhs, c.P)

	ax := new(big.Int).Mul(c.A, p.X)
	rhs.Add(rhs, ax)
	rhs.Add(rhs, c.B)
	rhs.Mod(rhs, c.P)

	return y2.Cmp(rhs) == 0
}

// checkScalarRange reports whether k is a canonical scalar in [1, n−1].
func (c *Curve) checkScalarRange(k *big.Int) bool {
	return k.Sign() > 0 && k.Cmp(c.N) < 0
}
