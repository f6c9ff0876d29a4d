package ec

import (
	"bytes"
	"crypto/elliptic"
	"errors"
	"math/big"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzPointMult diffs every point multiplication of the package
// against two references on P-256 and P-224: the math/big oracle
// (scalarMultBig, scalarBaseMultBig, and combinedMultNBig, which sums
// independent multiplications) and crypto/elliptic, whose combined
// multiplication is an Add of its two terms and whose (0, 0) is the
// point at infinity. Q = s·G for the fuzzed s, so that Q is always a
// valid point (crypto/elliptic panics on any other); s ≡ 0 selects G.
// a and b are scalars of any length. Each of a and b is run through
// ScalarMult, ScalarBaseMult and a MultTable's CombinedMult with
// u1 = 0, and the pair through CombinedMult and a MultTable's
// CombinedMult in both orders.
// CombinedMultN runs with u1 = s over two points, Q and G, taking a
// and b, and over three, Q, G and Q again, the third taking b as well,
// again in both orders of a and b; its infinity report is checked
// against both references' Σ k_i·P_i, and crypto/elliptic sums the
// terms with Add.
//
// The committed corpus (testdata/fuzz/FuzzPointMult) names the edge
// scalars of each curve: 0, 1, 2, n − 2, n − 1, n, n + 1, the
// all-ones 2^(bitlen(n)−1) − 1 (a carry through every signed window)
// and an even and an odd scalar, plus Q = G and Q = −G with a = b,
// whose combined results double and cancel. For CombinedMultN it also
// names a ≡ 0 and b ≡ 0 (mult2-a-zero, mult2-b-zero), Q = G and
// Q = −G with full-length a = b (mult2-p-eq-q, mult2-p-neg-q, where
// the two-point sum a·Q + b·G is infinity), and a·Q = −b·G for Q = 2G
// (mult2-cancel).
// Four more drive the additions into their doubling and cancellation
// branches with a negated addend, the case where R is held negated:
// with Q = G, CombinedMult's first comb digit −1 meets (n − 1)·G
// (madd-neg-double) or G (madd-neg-cancel) in the mixed addition, and
// the two-point CombinedMultN's last wNAF digit −1 meets a sum ≡ −1 or
// +1 when
// a + b ≡ −2 or 0 (mod n) in the Jacobian one (jadd-neg-double,
// jadd-neg-cancel).
func FuzzPointMult(f *testing.F) { fuzzPointMult(f, true) }

// FuzzPointMultStdlib is FuzzPointMult with crypto/elliptic as the
// only reference: the same multiplications, without the math/big
// oracle, which takes nine tenths of FuzzPointMult's time. It runs
// many more inputs per second, so it mutates where FuzzPointMult
// mostly replays its corpus. Its seeds are FuzzPointMult's committed
// corpus; an input it finds belongs there too, as a named seed that
// every reference checks.
func FuzzPointMultStdlib(f *testing.F) {
	files, err := filepath.Glob("testdata/fuzz/FuzzPointMult/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		var args []any
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
			v, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				f.Fatalf("%s: %v", name, err)
			}
			args = append(args, []byte(v))
		}
		f.Add(args...)
	}
	fuzzPointMult(f, false)
}

// fuzzPointMult runs checkPointMult on P-256 and P-224 for each input.
func fuzzPointMult(f *testing.F, oracle bool) {
	curves := []struct {
		c   *Curve
		std elliptic.Curve
	}{
		{P256(), elliptic.P256()},
		{P224(), elliptic.P224()},
	}
	f.Fuzz(func(t *testing.T, s, a, b []byte) {
		for _, tc := range curves {
			checkPointMult(t, tc.c, tc.std, s, a, b, oracle)
		}
	})
}

// checkPointMult runs FuzzPointMult's comparisons on one curve. Without
// oracle, the math/big results are not computed and crypto/elliptic's
// stand in for them (FuzzPointMultStdlib).
func checkPointMult(t *testing.T, c *Curve, std elliptic.Curve, s, a, b []byte, oracle bool) {
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
		wantStd, baseStd := fromStd(std.ScalarMult(q.X, q.Y, kb)), fromStd(std.ScalarBaseMult(kb))
		want, base := wantStd, baseStd
		if oracle {
			want, base = c.scalarMultBig(q, k), c.scalarBaseMultBig(k)
		}
		same(c.ScalarMult(q, k), want, wantStd, "ScalarMult(%x)", kb)
		same(tab.CombinedMult(new(big.Int), k), want, wantStd, "MultTable.CombinedMult(0, %x)", kb)
		same(c.ScalarBaseMult(k), base, baseStd, "ScalarBaseMult(%x)", kb)
	}

	for _, u := range [][2][]byte{{a, b}, {b, a}} {
		u1, u2 := new(big.Int).SetBytes(u[0]), new(big.Int).SetBytes(u[1])
		gx, gy := std.ScalarBaseMult(u[0])
		qx, qy := std.ScalarMult(q.X, q.Y, u[1])
		wantStd := fromStd(std.Add(gx, gy, qx, qy))
		want := wantStd
		if oracle {
			want, _ = c.combinedMultNBig(u1, []Point{q}, []*big.Int{u2})
		}
		same(c.CombinedMult(q, u1, u2), want, wantStd, "CombinedMult(%x, %x)", u[0], u[1])
		same(tab.CombinedMult(u1, u2), want, wantStd, "MultTable.CombinedMult(%x, %x)", u[0], u[1])
	}

	g, u1 := c.Generator(), new(big.Int).SetBytes(s)
	sx, sy := std.ScalarBaseMult(s)
	for _, u := range [][2][]byte{{a, b}, {b, a}} {
		x, y := new(big.Int).SetBytes(u[0]), new(big.Int).SetBytes(u[1])
		px, py := std.ScalarMult(q.X, q.Y, u[0])
		gx, gy := std.ScalarBaseMult(u[1])
		twoX, twoY := std.Add(px, py, gx, gy)
		qx, qy := std.ScalarMult(q.X, q.Y, u[1])
		threeX, threeY := std.Add(twoX, twoY, qx, qy)
		forms := []struct {
			points     []Point
			scalars    []*big.Int
			sumX, sumY *big.Int
		}{
			{[]Point{q, g}, []*big.Int{x, y}, twoX, twoY},
			{[]Point{q, g, q}, []*big.Int{x, y, y}, threeX, threeY},
		}
		for _, fm := range forms {
			wantStd, stdZero := fromStd(std.Add(sx, sy, fm.sumX, fm.sumY)), fromStd(fm.sumX, fm.sumY).IsInfinity()
			want, wantZero := wantStd, stdZero
			if oracle {
				want, wantZero = c.combinedMultNBig(u1, fm.points, fm.scalars)
			}
			got, zero := c.CombinedMultN(u1, fm.points, fm.scalars)
			same(got, want, wantStd, "CombinedMultN(%x; %x, %x) over %d points", s, u[0], u[1], len(fm.points))
			if zero != wantZero || wantZero != stdZero {
				t.Fatalf("%s: CombinedMultN(%x; %x, %x) over %d points reports Σ k_i·P_i infinite %v: math/big oracle %v, crypto/elliptic %v",
					c.Name, s, u[0], u[1], len(fm.points), zero, wantZero, stdZero)
			}
		}
	}
}

// FuzzDecodePoint feeds peer bytes to DecodePoint on every bundled
// curve. A rejection must wrap ErrInvalidPoint, and a well-formed
// compressed x below p may be rejected only when the math/big square
// root (rhsSqrtBig) finds no point either. A decoded point must lie on
// the curve by the math/big check (isOnCurveBig), re-encode in its input's
// form to the input bytes, and decode from its other form to itself;
// the point at infinity comes only from the single byte 0x00.
//
// The committed corpus (testdata/fuzz/FuzzDecodePoint) names each
// curve's generator and its negation in both forms, a compressed x of
// p and one with no square root, an uncompressed point off the curve,
// the infinity byte alone and with a trailing byte, an empty input and
// an unknown prefix.
func FuzzDecodePoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range Curves() {
			checkDecodePoint(t, c, data)
		}
	})
}

// checkDecodePoint runs FuzzDecodePoint's checks on one curve.
func checkDecodePoint(t *testing.T, c *Curve, data []byte) {
	t.Helper()
	p, err := c.DecodePoint(data)
	if err != nil {
		if !errors.Is(err, ErrInvalidPoint) {
			t.Fatalf("%s: DecodePoint(%x): error %v does not wrap ErrInvalidPoint", c.Name, data, err)
		}
		if len(data) == 1+c.byteLen && (data[0] == prefixCompressed0 || data[0] == prefixCompressed1) {
			if x := new(big.Int).SetBytes(data[1:]); x.Cmp(c.P) < 0 {
				if _, ok := c.rhsSqrtBig(x); ok {
					t.Fatalf("%s: DecodePoint(%x) rejected an x that the math/big oracle lifts: %v", c.Name, data, err)
				}
			}
		}
		return
	}
	if p.IsInfinity() {
		if !bytes.Equal(data, []byte{prefixInfinity}) {
			t.Fatalf("%s: DecodePoint(%x) returned the point at infinity", c.Name, data)
		}
		return
	}
	if !c.isOnCurveBig(p) {
		t.Fatalf("%s: DecodePoint(%x) = %v, not on the curve", c.Name, data, p)
	}
	same, other := c.EncodeCompressed(p), c.EncodeUncompressed(p)
	if data[0] == prefixUncompressed {
		same, other = other, same
	}
	if !bytes.Equal(same, data) {
		t.Fatalf("%s: DecodePoint(%x) re-encodes as %x", c.Name, data, same)
	}
	if q, err := c.DecodePoint(other); err != nil || !q.Equal(p) {
		t.Fatalf("%s: the other encoding %x of DecodePoint(%x) decodes to %v, %v", c.Name, other, data, q, err)
	}
}
