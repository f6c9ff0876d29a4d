package ec

import (
	"math/big"
	"math/rand"
	"testing"
)

// combCoefficients returns the multiples of Q that MultTable's signed
// comb holds: T[j] = 2^{3d} + Σ_{b<3} (2·j_b − 1)·2^{bd}.
func combCoefficients(d int) [8]*big.Int {
	var coef [8]*big.Int
	for j := range coef {
		v := new(big.Int).Lsh(big.NewInt(1), uint(3*d))
		for b := 0; b < 3; b++ {
			term := new(big.Int).Lsh(big.NewInt(1), uint(b*d))
			if j>>b&1 == 1 {
				v.Add(v, term)
			} else {
				v.Sub(v, term)
			}
		}
		coef[j] = v
	}
	return coef
}

// TestCombRecoding checks both fixed-point recodings digit by digit,
// on all three curves, for edge scalars and 1,000 random ones. The
// signed comb's column digits rebuild k' (k, or n − k for an even k,
// with the negation reported) and every table index lies in 0..7. The
// signed 5-bit window digits lie in [−15, 16] and rebuild k exactly,
// which leaves no carry out of the top window.
func TestCombRecoding(t *testing.T) {
	shape := map[string][2]int{ // spacing d, windows W
		"secp256r1": {64, 52},
		"secp224r1": {56, 45},
		"secp192r1": {48, 39},
	}
	r := rand.New(rand.NewSource(107))
	for _, c := range Curves() {
		d, w := c.combSpacing, c.baseWindows
		if want := shape[c.Name]; d != want[0] || w != want[1] || 4*d != c.N.BitLen() {
			t.Fatalf("%s: spacing %d, windows %d; want %v with 4d = bitlen(n)", c.Name, d, w, want)
		}
		coef := combCoefficients(d)
		one := big.NewInt(1)
		scalars := []*big.Int{
			big.NewInt(1), big.NewInt(2), big.NewInt(3), big.NewInt(31), big.NewInt(32),
			new(big.Int).Sub(c.N, one),
			new(big.Int).Sub(c.N, big.NewInt(2)),
			new(big.Int).Rsh(c.N, 1),
			new(big.Int).Lsh(one, uint(c.N.BitLen()-1)),
			new(big.Int).Sub(new(big.Int).Lsh(one, uint(c.N.BitLen()-1)), one),
			new(big.Int).Lsh(one, uint(3*d)),
		}
		for i := 0; i < 1000; i++ {
			k := new(big.Int).Rand(r, c.N)
			if k.Sign() == 0 {
				k.SetInt64(1)
			}
			scalars = append(scalars, k)
		}
		for _, k := range scalars {
			var kl [4]uint64
			scalarLimbs(k, &kl)

			var cbuf [maxCombSpacing]int8
			digits, neg := combDigits(&kl, &c.nLimbs, d, cbuf[:])
			want := new(big.Int).Set(k)
			if k.Bit(0) == 0 {
				want.Sub(c.N, k)
			}
			if neg != (k.Bit(0) == 0) || len(digits) != d {
				t.Fatalf("%s: combDigits(%v): neg %v, %d digits", c.Name, k, neg, len(digits))
			}
			sum := new(big.Int)
			for i := d - 1; i >= 0; i-- {
				sum.Lsh(sum, 1)
				dg := int(digits[i])
				switch {
				case dg >= 1 && dg <= 8:
					sum.Add(sum, coef[dg-1])
				case dg >= -8 && dg <= -1:
					sum.Sub(sum, coef[-dg-1])
				default:
					t.Fatalf("%s: combDigits(%v): column %d digit %d, index outside 0..7", c.Name, k, i, dg)
				}
			}
			if sum.Cmp(want) != 0 {
				t.Fatalf("%s: combDigits(%v) rebuild %v, want %v", c.Name, k, sum, want)
			}

			var wbuf [maxBaseWindows]int8
			windows := baseDigits(&kl, w, wbuf[:])
			if len(windows) != w {
				t.Fatalf("%s: baseDigits(%v): %d digits, want %d", c.Name, k, len(windows), w)
			}
			sum.SetInt64(0)
			for i := w - 1; i >= 0; i-- {
				dg := windows[i]
				if dg < -15 || dg > 16 {
					t.Fatalf("%s: baseDigits(%v): window %d digit %d outside [-15, 16]", c.Name, k, i, dg)
				}
				sum.Lsh(sum, baseWindowBits)
				sum.Add(sum, big.NewInt(int64(dg)))
			}
			if sum.Cmp(k) != 0 {
				t.Fatalf("%s: baseDigits(%v) rebuild %v: a carry left the top window", c.Name, k, sum)
			}
		}
	}
}

// TestCombTables checks the precomputed points themselves against the
// math/big oracle: every entry of a MultTable's signed comb, and the
// first, second and last rows of the fixed-base comb (j·32^w·G).
func TestCombTables(t *testing.T) {
	requireFP(t)
	affine := func(c *Curve, a *fpAffine) Point { return Point{X: c.fpF.ToBig(&a.x), Y: c.fpF.ToBig(&a.y)} }
	for _, c := range Curves() {
		q := c.scalarBaseMultBig(big.NewInt(0x7ab1e))
		tab := c.NewMultTable(q)
		for j, k := range combCoefficients(c.combSpacing) {
			if k.Sign() <= 0 || k.Cmp(c.N) >= 0 {
				t.Fatalf("%s: comb coefficient %d = %v outside (0, n)", c.Name, j, k)
			}
			if got, want := affine(c, &tab.fpTab[j]), c.scalarMultBig(q, k); !got.Equal(want) {
				t.Fatalf("%s: MultTable T[%d] = %v, want %v", c.Name, j, got, want)
			}
		}
		rows := c.combRows()
		if len(rows) != c.baseWindows {
			t.Fatalf("%s: %d comb rows, want %d", c.Name, len(rows), c.baseWindows)
		}
		for _, w := range []int{0, 1, len(rows) - 1} {
			for j := range rows[w] {
				k := new(big.Int).Lsh(big.NewInt(int64(j+1)), uint(baseWindowBits*w))
				if got, want := affine(c, &rows[w][j]), c.scalarBaseMultBig(k); !got.Equal(want) {
					t.Fatalf("%s: comb row %d entry %d = %v, want %v", c.Name, w, j, got, want)
				}
			}
		}
	}
}
