package ec

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ec/fp"
)

// Differential tests of the fixed-limb Montgomery backend against the
// retained math/big oracle, and of both against crypto/elliptic. These
// are the parity proofs for the backend swap: every public entry point
// must agree bit-exactly on all three curves, including edge scalars
// and non-canonical inputs.

// edgeScalars returns boundary scalars for a curve of order n:
// 0 and n (→ infinity), 1, 2, small, n−1, n−2, (n−1)/2, a power of
// two, and values above n that must reduce.
func edgeScalars(c *Curve) []*big.Int {
	one := big.NewInt(1)
	return []*big.Int{
		big.NewInt(0),
		new(big.Int).Set(c.N),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(3),
		big.NewInt(31),
		new(big.Int).Sub(c.N, one),
		new(big.Int).Sub(c.N, big.NewInt(2)),
		new(big.Int).Rsh(new(big.Int).Sub(c.N, one), 1),
		new(big.Int).Lsh(one, uint(c.BitSize-1)),
		new(big.Int).Add(c.N, big.NewInt(5)),
		new(big.Int).Mul(c.N, big.NewInt(3)),
	}
}

func randScalars(c *Curve, r *rand.Rand, n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).Rand(r, c.N)
	}
	return out
}

func requireFP(t *testing.T) {
	t.Helper()
	if useBigBackend {
		t.Skip("built with -tags ec_purebig: fp backend disabled")
	}
}

func TestFPBackendEnabled(t *testing.T) {
	requireFP(t)
	for _, c := range Curves() {
		if c.fpF == nil {
			t.Fatalf("%s: fp backend not initialised", c.Name)
		}
	}
}

// TestScalarMultDifferential proves k·P parity between the fp backend
// and the math/big oracle for edge and random scalars on all curves.
func TestScalarMultDifferential(t *testing.T) {
	requireFP(t)
	r := rand.New(rand.NewSource(101))
	for _, c := range Curves() {
		g := c.Generator()
		// A second, non-generator base point.
		q := c.scalarMultBig(g, big.NewInt(0xbeef))
		for _, p := range []Point{g, q} {
			for _, k := range append(edgeScalars(c), randScalars(c, r, 25)...) {
				got := c.ScalarMult(p, k)
				want := c.scalarMultBig(p, k)
				if !got.Equal(want) {
					t.Fatalf("%s: ScalarMult(%v) backend mismatch:\n fp  = %v\n big = %v",
						c.Name, k, got, want)
				}
				if !got.IsInfinity() && !c.IsOnCurve(got) {
					t.Fatalf("%s: ScalarMult(%v) left the curve", c.Name, k)
				}
			}
		}
		// Infinity in, infinity out.
		if !c.ScalarMult(Point{}, big.NewInt(7)).IsInfinity() {
			t.Fatalf("%s: ScalarMult(∞) not infinity", c.Name)
		}
		// The fp naive ladder (ablation baseline) must agree too.
		for _, k := range append(edgeScalars(c), randScalars(c, r, 5)...) {
			if got, want := c.ScalarMultNaive(g, k), c.scalarMultBig(g, k); !got.Equal(want) {
				t.Fatalf("%s: ScalarMultNaive(%v) backend mismatch", c.Name, k)
			}
		}
	}
}

// TestScalarBaseMultDifferential proves comb-table parity with the
// oracle's cached-affine path.
func TestScalarBaseMultDifferential(t *testing.T) {
	requireFP(t)
	r := rand.New(rand.NewSource(102))
	for _, c := range Curves() {
		for _, k := range append(edgeScalars(c), randScalars(c, r, 40)...) {
			got := c.ScalarBaseMult(k)
			want := c.scalarBaseMultBig(k)
			if !got.Equal(want) {
				t.Fatalf("%s: ScalarBaseMult(%v) backend mismatch:\n fp  = %v\n big = %v",
					c.Name, k, got, want)
			}
		}
	}
}

// TestCombinedMultDifferential proves u1·G + u2·Q parity, including
// the degenerate zero-scalar corners.
func TestCombinedMultDifferential(t *testing.T) {
	requireFP(t)
	r := rand.New(rand.NewSource(103))
	for _, c := range Curves() {
		q := c.scalarMultBig(c.Generator(), big.NewInt(0x5e55))
		scalars := append(edgeScalars(c), randScalars(c, r, 10)...)
		for _, u1 := range scalars {
			for _, u2 := range scalars {
				got := c.CombinedMult(q, u1, u2)
				want := c.combinedMultBig(q, u1, u2)
				if !got.Equal(want) {
					t.Fatalf("%s: CombinedMult(%v, %v) backend mismatch:\n fp  = %v\n big = %v",
						c.Name, u1, u2, got, want)
				}
			}
		}
		// Q at infinity degenerates to the base term.
		if got, want := c.CombinedMult(Point{}, big.NewInt(9), big.NewInt(4)), c.scalarBaseMultBig(big.NewInt(9)); !got.Equal(want) {
			t.Fatalf("%s: CombinedMult(∞) mismatch", c.Name)
		}
	}
}

// TestAddDoubleDifferential proves the group law entry points agree,
// including the identity, inverse and doubling corners.
func TestAddDoubleDifferential(t *testing.T) {
	requireFP(t)
	r := rand.New(rand.NewSource(104))
	for _, c := range Curves() {
		g := c.Generator()
		pts := []Point{{}, g, c.scalarMultBig(g, big.NewInt(2)), c.scalarMultBig(g, new(big.Int).Rand(r, c.N))}
		pts = append(pts, c.Neg(g)) // p + (−p) = ∞
		for _, p := range pts {
			for _, q := range pts {
				got := c.Add(p, q)
				want := c.addBig(p, q)
				if !got.Equal(want) {
					t.Fatalf("%s: Add mismatch:\n fp  = %v\n big = %v", c.Name, got, want)
				}
			}
			if got, want := c.Double(p), c.doubleBig(p); !got.Equal(want) {
				t.Fatalf("%s: Double mismatch:\n fp  = %v\n big = %v", c.Name, got, want)
			}
		}
	}
}

// TestAgainstCryptoElliptic cross-checks ScalarMult, ScalarBaseMult
// and CombinedMult against the standard library on the curves it
// ships (P-256, P-224).
func TestAgainstCryptoElliptic(t *testing.T) {
	cases := []struct {
		c   *Curve
		std elliptic.Curve
	}{
		{P256(), elliptic.P256()},
		{P224(), elliptic.P224()},
	}
	r := rand.New(rand.NewSource(105))
	for _, tc := range cases {
		scalars := append([]*big.Int{
			big.NewInt(1),
			big.NewInt(2),
			new(big.Int).Sub(tc.c.N, big.NewInt(1)),
		}, randScalars(tc.c, r, 15)...)
		for _, k := range scalars {
			kb := make([]byte, tc.c.ByteLen())
			k.FillBytes(kb)

			// Base-point multiplication.
			wx, wy := tc.std.ScalarBaseMult(kb)
			got := tc.c.ScalarBaseMult(k)
			if got.X.Cmp(wx) != 0 || got.Y.Cmp(wy) != 0 {
				t.Fatalf("%s: ScalarBaseMult(%v) disagrees with crypto/elliptic", tc.c.Name, k)
			}

			// Arbitrary-point multiplication against k·G.
			px, py := wx, wy
			for _, k2 := range scalars[:5] {
				k2b := make([]byte, tc.c.ByteLen())
				k2.FillBytes(k2b)
				wx2, wy2 := tc.std.ScalarMult(px, py, k2b)
				got2 := tc.c.ScalarMult(Point{X: px, Y: py}, k2)
				if got2.X.Cmp(wx2) != 0 || got2.Y.Cmp(wy2) != 0 {
					t.Fatalf("%s: ScalarMult disagrees with crypto/elliptic", tc.c.Name)
				}

				// CombinedMult = u1·G + u2·Q via stdlib Add.
				bx, by := tc.std.ScalarBaseMult(k2b)
				sx, sy := tc.std.Add(bx, by, wx2, wy2)
				comb := tc.c.CombinedMult(Point{X: px, Y: py}, k2, k2)
				if comb.IsInfinity() {
					if sx.Sign() != 0 || sy.Sign() != 0 {
						t.Fatalf("%s: CombinedMult infinity mismatch", tc.c.Name)
					}
				} else if comb.X.Cmp(sx) != 0 || comb.Y.Cmp(sy) != 0 {
					t.Fatalf("%s: CombinedMult disagrees with crypto/elliptic", tc.c.Name)
				}
			}
		}
	}
}

// TestMultTableParity proves the cached-table paths return exactly
// what the direct entry points return.
func TestMultTableParity(t *testing.T) {
	r := rand.New(rand.NewSource(106))
	for _, c := range Curves() {
		q := c.ScalarBaseMult(big.NewInt(0xcafe))
		tab := c.NewMultTable(q)
		if !tab.Point().Equal(q) || tab.Curve() != c {
			t.Fatalf("%s: MultTable identity accessors wrong", c.Name)
		}
		for _, k := range append(edgeScalars(c), randScalars(c, r, 20)...) {
			if got, want := tab.ScalarMult(k), c.ScalarMult(q, k); !got.Equal(want) {
				t.Fatalf("%s: MultTable.ScalarMult(%v) mismatch", c.Name, k)
			}
		}
		scalars := append(edgeScalars(c), randScalars(c, r, 6)...)
		for _, u1 := range scalars {
			for _, u2 := range scalars {
				if got, want := tab.CombinedMult(u1, u2), c.CombinedMult(q, u1, u2); !got.Equal(want) {
					t.Fatalf("%s: MultTable.CombinedMult(%v, %v) mismatch", c.Name, u1, u2)
				}
			}
		}
	}
	// Infinity table degenerates cleanly.
	c := P256()
	tab := c.NewMultTable(Point{})
	if !tab.ScalarMult(big.NewInt(5)).IsInfinity() {
		t.Fatal("infinity MultTable.ScalarMult not infinity")
	}
	if got, want := tab.CombinedMult(big.NewInt(5), big.NewInt(7)), c.ScalarBaseMult(big.NewInt(5)); !got.Equal(want) {
		t.Fatal("infinity MultTable.CombinedMult did not degenerate to base term")
	}
}

// TestMultTableConcurrent exercises one shared table from many
// goroutines (the fleet steady state) under -race.
func TestMultTableConcurrent(t *testing.T) {
	c := P256()
	q := c.ScalarBaseMult(big.NewInt(777))
	tab := c.NewMultTable(q)
	want := c.ScalarMult(q, big.NewInt(1234))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !tab.ScalarMult(big.NewInt(1234)).Equal(want) {
					t.Error("concurrent MultTable.ScalarMult mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// allocBudget is the hard ceiling on heap allocations per scalar
// multiplication on the fp backend — CI fails if the hot path regresses
// into per-digit allocation again. The handful that remain are the
// boundary big.Ints (scalar reduction, output point).
const allocBudget = 24

func TestScalarMultAllocBudget(t *testing.T) {
	requireFP(t)
	c := P256()
	k := new(big.Int).SetInt64(0x1db7_5bb1)
	k.Lsh(k, 200)
	k.Mod(k, c.N)
	q := c.ScalarBaseMult(big.NewInt(0xabc))
	tab := c.NewMultTable(q)

	cases := []struct {
		name string
		fn   func()
	}{
		{"ScalarMult", func() { c.ScalarMult(q, k) }},
		{"ScalarBaseMult", func() { c.ScalarBaseMult(k) }},
		{"CombinedMult", func() { c.CombinedMult(q, k, k) }},
		{"MultTable.ScalarMult", func() { tab.ScalarMult(k) }},
		{"MultTable.CombinedMult", func() { tab.CombinedMult(k, k) }},
	}
	for _, tc := range cases {
		tc.fn() // warm lazy tables outside the measurement
		if got := testing.AllocsPerRun(20, tc.fn); got > allocBudget {
			t.Errorf("%s: %.0f allocs/op, budget %d", tc.name, got, allocBudget)
		}
	}
}

// BenchmarkMultTableBuild measures the cost the SharedTableCache
// amortizes away fleet-wide: the signed comb's 3d doublings and ten
// additions plus one shared-inversion affine conversion.
func BenchmarkMultTableBuild(b *testing.B) {
	c := P256()
	q := c.ScalarBaseMult(big.NewInt(0x5eed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.NewMultTable(q)
	}
}

func BenchmarkMultTableScalarMult(b *testing.B) {
	c := P256()
	q := c.ScalarBaseMult(big.NewInt(0xabc))
	tab := c.NewMultTable(q)
	k, _ := c.RandomScalar(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.ScalarMult(k)
	}
}

func BenchmarkMultTableCombinedMult(b *testing.B) {
	c := P256()
	q := c.ScalarBaseMult(big.NewInt(0xabc))
	tab := c.NewMultTable(q)
	u1, _ := c.RandomScalar(nil)
	u2, _ := c.RandomScalar(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.CombinedMult(u1, u2)
	}
}

// dbl2001b is the textbook evaluation order of dbl-2001-b (3M + 5S):
// the reference the Y′ = 2Y doubling of fpDouble must match limb for
// limb.
func dbl2001b(f *fp.Field, p *fpJac) {
	var delta, gamma, beta, alpha, tmp fp.Element
	f.Sqr(&delta, &p.z)
	f.Sqr(&gamma, &p.y)
	f.Mul(&beta, &p.x, &gamma)
	f.Sub(&alpha, &p.x, &delta)
	f.Add(&tmp, &p.x, &delta)
	f.Mul(&alpha, &alpha, &tmp)
	f.Dbl(&tmp, &alpha)
	f.Add(&alpha, &tmp, &alpha)
	f.Add(&tmp, &p.y, &p.z)
	f.Sqr(&p.z, &tmp)
	f.Sub(&p.z, &p.z, &gamma)
	f.Sub(&p.z, &p.z, &delta)
	f.Dbl(&beta, &beta)
	f.Dbl(&beta, &beta)
	f.Dbl(&tmp, &beta)
	f.Sqr(&p.x, &alpha)
	f.Sub(&p.x, &p.x, &tmp)
	f.Sub(&tmp, &beta, &p.x)
	f.Mul(&p.y, &alpha, &tmp)
	f.Sqr(&gamma, &gamma)
	f.Dbl(&gamma, &gamma)
	f.Dbl(&gamma, &gamma)
	f.Dbl(&gamma, &gamma)
	f.Sub(&p.y, &p.y, &gamma)
}

// TestDoubleMatchesDbl2001b requires fpDouble's output limbs to equal
// the textbook dbl-2001-b's on every curve, for 500 random points k·G
// each put in a random Jacobian representative (X·λ², Y·λ³, λ), and
// for the same points in affine form (Z = 1).
func TestDoubleMatchesDbl2001b(t *testing.T) {
	requireFP(t)
	r := rand.New(rand.NewSource(41))
	for _, c := range Curves() {
		f := c.fpF
		var s fpScratch
		for i := 0; i < 500; i++ {
			var p fpJac
			c.fpFromAffinePoint(&p, c.ScalarBaseMult(new(big.Int).Rand(r, c.N)))
			if i%2 == 1 {
				var l, l2 fp.Element
				f.FromBig(&l, new(big.Int).Rand(r, c.P))
				if f.IsZero(&l) {
					continue
				}
				f.Sqr(&l2, &l)
				f.Mul(&p.x, &p.x, &l2)
				f.Mul(&l2, &l2, &l)
				f.Mul(&p.y, &p.y, &l2)
				p.z = l
			}
			got, want := p, p
			c.fpDouble(&got, &s)
			dbl2001b(f, &want)
			if got != want {
				t.Fatalf("%s: fpDouble(%v) = %v, dbl-2001-b %v", c.Name, p, got, want)
			}
		}
	}
}
