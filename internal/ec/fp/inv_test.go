package fp

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestInvMatchesFermat diffs the safegcd Inv against the Fermat
// exponentiation x^(p−2) through pow and against math/big's
// ModInverse, on the three curve primes. The values are 0 (whose
// inverse is 0), 1, 2, p − 1, p − 2, 2^k mod p for every k < 256 and
// 10,000 seeded random elements, each taken both as raw limbs (the
// integer the gcd runs on) and in Montgomery form, and inverted both
// into a separate element and in place.
func TestInvMatchesFermat(t *testing.T) {
	for _, hex := range testPrimes[:3] {
		o := newFieldOracle(t, hex)
		f, p := o.f, o.p
		var pm2 [Limbs]uint64
		fillLimbs(&pm2, new(big.Int).Sub(p, big.NewInt(2)))

		one := big.NewInt(1)
		vals := []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(2),
			new(big.Int).Sub(p, one), new(big.Int).Sub(p, big.NewInt(2)),
		}
		for k := 0; k < 256; k++ {
			vals = append(vals, new(big.Int).Mod(new(big.Int).Lsh(one, uint(k)), p))
		}
		vals = append(vals, randValues(p, rand.New(rand.NewSource(31)), 10000)...)

		for _, v := range vals {
			for _, x := range []Element{limbsOf(v), o.mont(v)} {
				var want, fermat, got Element
				if vx := o.value(&x); vx.Sign() != 0 {
					want = o.mont(new(big.Int).ModInverse(vx, p))
				}
				f.pow(&fermat, &x, &pm2)
				f.Inv(&got, &x)
				if got != want || fermat != want {
					t.Fatalf("p=%s: Inv(%x) = %x, Fermat %x, math/big %x", hex, x, got, fermat, want)
				}
				f.Inv(&x, &x)
				if x != want {
					t.Fatalf("p=%s: in-place Inv = %x, want %x", hex, x, want)
				}
			}
		}
	}
}

// TestFieldKernelsAllocFree requires every field kernel to run without
// a heap allocation on the three curve primes (Sqrt only where p ≡ 3
// mod 4: P-256 and P-192, not P-224).
func TestFieldKernelsAllocFree(t *testing.T) {
	for i, name := range benchPrimes {
		o := newFieldOracle(t, testPrimes[i])
		f := o.f
		r := rand.New(rand.NewSource(37))
		x, y := o.mont(new(big.Int).Rand(r, o.p)), o.mont(new(big.Int).Rand(r, o.p))
		var z Element
		kernels := []struct {
			name string
			op   func()
		}{
			{"Mul", func() { f.Mul(&z, &x, &y) }},
			{"Sqr", func() { f.Sqr(&z, &x) }},
			{"Add", func() { f.Add(&z, &x, &y) }},
			{"Sub", func() { f.Sub(&z, &x, &y) }},
			{"Dbl", func() { f.Dbl(&z, &x) }},
			{"Neg", func() { f.Neg(&z, &x) }},
			{"Half", func() { f.Half(&z, &x) }},
			{"Inv", func() { f.Inv(&z, &x) }},
			{"Sqrt", func() { f.Sqrt(&z, &x) }},
		}
		for _, k := range kernels {
			if k.name == "Sqrt" && o.p.Bit(1) == 0 {
				continue // P-224: Sqrt panics by contract
			}
			if n := testing.AllocsPerRun(100, k.op); n != 0 {
				t.Errorf("%s: %s allocates %.1f times per op, want 0", name, k.name, n)
			}
		}
	}
}
