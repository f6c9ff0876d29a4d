package ec

import (
	"crypto/elliptic"
	"math/big"
	"testing"
)

// FuzzPointMult diffs every point multiplication of the package
// against two references on P-256 and P-224: the math/big oracle
// (scalarMultBig, scalarBaseMultBig, combinedMultBig) and
// crypto/elliptic, whose combined multiplication is an Add of its two
// terms and whose (0, 0) is the point at infinity. Q = s·G for the
// fuzzed s, so that Q is always a valid point (crypto/elliptic panics
// on any other); s ≡ 0 selects G. a and b are scalars of any length.
// Each of a and b is run through ScalarMult, ScalarBaseMult and a
// MultTable's ScalarMult, and the pair through CombinedMult and a
// MultTable's CombinedMult and CombinedMultDeferred in both orders.
//
// The committed corpus (testdata/fuzz/FuzzPointMult) names the edge
// scalars of each curve: 0, 1, 2, n − 2, n − 1, n, n + 1, the
// all-ones 2^(bitlen(n)−1) − 1 (a carry through every signed window)
// and an even and an odd scalar, plus Q = G and Q = −G with a = b,
// whose combined results double and cancel.
func FuzzPointMult(f *testing.F) {
	curves := []struct {
		c   *Curve
		std elliptic.Curve
	}{
		{P256(), elliptic.P256()},
		{P224(), elliptic.P224()},
	}
	f.Fuzz(func(t *testing.T, s, a, b []byte) {
		for _, tc := range curves {
			checkPointMult(t, tc.c, tc.std, s, a, b)
		}
	})
}

// checkPointMult runs FuzzPointMult's comparisons on one curve.
func checkPointMult(t *testing.T, c *Curve, std elliptic.Curve, s, a, b []byte) {
	t.Helper()
	fromStd := func(x, y *big.Int) Point {
		if x.Sign() == 0 && y.Sign() == 0 {
			return Point{}
		}
		return Point{X: x, Y: y}
	}
	q := fromStd(std.ScalarBaseMult(s))
	if q.IsInfinity() {
		q = c.Generator()
	}
	tab := c.NewMultTable(q)
	same := func(got, oracle, stdlib Point, format string, args ...any) {
		t.Helper()
		if !oracle.Equal(stdlib) {
			t.Fatalf("%s: "+format+": math/big oracle %v, crypto/elliptic %v",
				append(append([]any{c.Name}, args...), oracle, stdlib)...)
		}
		if !got.Equal(oracle) {
			t.Fatalf("%s: "+format+" = %v, want %v", append(append([]any{c.Name}, args...), got, oracle)...)
		}
	}

	for _, kb := range [][]byte{a, b} {
		k := new(big.Int).SetBytes(kb)
		want, wantStd := c.scalarMultBig(q, k), fromStd(std.ScalarMult(q.X, q.Y, kb))
		same(c.ScalarMult(q, k), want, wantStd, "ScalarMult(%x)", kb)
		same(tab.ScalarMult(k), want, wantStd, "MultTable.ScalarMult(%x)", kb)
		same(c.ScalarBaseMult(k), c.scalarBaseMultBig(k), fromStd(std.ScalarBaseMult(kb)), "ScalarBaseMult(%x)", kb)
	}

	for _, u := range [][2][]byte{{a, b}, {b, a}} {
		u1, u2 := new(big.Int).SetBytes(u[0]), new(big.Int).SetBytes(u[1])
		gx, gy := std.ScalarBaseMult(u[0])
		qx, qy := std.ScalarMult(q.X, q.Y, u[1])
		want, wantStd := c.combinedMultBig(q, u1, u2), fromStd(std.Add(gx, gy, qx, qy))
		same(c.CombinedMult(q, u1, u2), want, wantStd, "CombinedMult(%x, %x)", u[0], u[1])
		same(tab.CombinedMult(u1, u2), want, wantStd, "MultTable.CombinedMult(%x, %x)", u[0], u[1])
		deferred := tab.CombinedMultDeferred(u1, u2)
		same(deferred.Normalize(), want, wantStd, "MultTable.CombinedMultDeferred(%x, %x)", u[0], u[1])
	}
}
