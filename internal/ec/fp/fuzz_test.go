package fp

import (
	"math/big"
	"testing"
)

// fieldOracle pairs a Field with the math/big constants that decode
// and encode its raw Montgomery limbs.
type fieldOracle struct {
	name string
	f    *Field
	p    *big.Int
	r    *big.Int // R mod p
	rInv *big.Int // R⁻¹ mod p
}

func newFieldOracle(t testing.TB, hex string) *fieldOracle {
	p, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		t.Fatalf("bad prime constant %s", hex)
	}
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	r := new(big.Int).Lsh(big.NewInt(1), 64*Limbs)
	r.Mod(r, p)
	return &fieldOracle{name: hex, f: f, p: p, r: r, rInv: new(big.Int).ModInverse(r, p)}
}

// value returns the field element that the limbs of e hold: e·R⁻¹ mod p.
func (o *fieldOracle) value(e *Element) *big.Int {
	var buf [8 * Limbs]byte
	for i := 0; i < Limbs; i++ {
		for j := 0; j < 8; j++ {
			buf[8*(Limbs-1-i)+7-j] = byte(e[i] >> (8 * j))
		}
	}
	v := new(big.Int).SetBytes(buf[:])
	return v.Mul(v, o.rInv).Mod(v, o.p)
}

// mont returns the fully reduced Montgomery limbs of v mod p: v·R mod p.
func (o *fieldOracle) mont(v *big.Int) Element {
	m := new(big.Int).Mul(v, o.r)
	m.Mod(m, o.p)
	var e Element
	fillLimbs((*[Limbs]uint64)(&e), m)
	return e
}

// check runs every kernel on the raw limbs a, b (each reduced mod p)
// and requires the result limbs to equal the reduced Montgomery form
// of the math/big answer, which also proves the output is below p.
func (o *fieldOracle) check(t *testing.T, a, b []byte) {
	var x, y, z Element
	fillLimbs((*[Limbs]uint64)(&x), new(big.Int).Mod(new(big.Int).SetBytes(a), o.p))
	fillLimbs((*[Limbs]uint64)(&y), new(big.Int).Mod(new(big.Int).SetBytes(b), o.p))
	vx, vy := o.value(&x), o.value(&y)
	want := func(op string, v *big.Int) {
		t.Helper()
		if w := o.mont(v.Mod(v, o.p)); z != w {
			t.Fatalf("p=%s: %s(%x, %x) = %x, want %x", o.name, op, x, y, z, w)
		}
	}

	o.f.Add(&z, &x, &y)
	want("Add", new(big.Int).Add(vx, vy))
	o.f.Sub(&z, &x, &y)
	want("Sub", new(big.Int).Sub(vx, vy))
	o.f.Dbl(&z, &x)
	want("Dbl", new(big.Int).Lsh(vx, 1))
	o.f.Neg(&z, &x)
	want("Neg", new(big.Int).Neg(vx))
	o.f.Half(&z, &x)
	want("Half", new(big.Int).Mul(vx, new(big.Int).ModInverse(big.NewInt(2), o.p)))
	o.f.Mul(&z, &x, &y)
	want("Mul", new(big.Int).Mul(vx, vy))
	o.f.Sqr(&z, &x)
	want("Sqr", new(big.Int).Mul(vx, vx))
	o.f.Inv(&z, &x)
	if vx.Sign() == 0 {
		want("Inv", new(big.Int)) // Inv(0) = 0 by convention
	} else {
		want("Inv", new(big.Int).ModInverse(vx, o.p))
	}

	if o.p.Bit(1) == 0 {
		return // p ≡ 1 (mod 4): no fp square root, ec keeps math/big
	}
	z = y
	ok := o.f.Sqrt(&z, &x)
	if residue := new(big.Int).ModSqrt(vx, o.p) != nil; ok != residue {
		t.Fatalf("p=%s: Sqrt(%x) ok = %v, math/big residue = %v", o.name, x, ok, residue)
	}
	if !ok {
		if z != y {
			t.Fatalf("p=%s: Sqrt(%x) wrote z on a non-residue", o.name, x)
		}
		return
	}
	e := new(big.Int).Add(o.p, big.NewInt(1))
	want("Sqrt", new(big.Int).Exp(vx, e.Rsh(e, 2), o.p))
}

// FuzzFieldOps diffs Add, Sub, Dbl, Neg, Half (against x·2⁻¹ mod p),
// Mul, Sqr, Inv and Sqrt against math/big on the three curve primes. The two 32-byte inputs
// are big-endian values taken mod p as raw Montgomery limbs, so the
// committed corpus (testdata/fuzz/FuzzFieldOps) can aim at the
// limb-level boundaries of the masked selects: x + y = p, p − 1 and
// p + 1, a sum carrying past 2^256, x = y, x − y = −1, 0 and p − 1.
// Sqrt runs on the p ≡ 3 (mod 4) primes (P-256, P-192); P-224 has no
// fp square root.
func FuzzFieldOps(f *testing.F) {
	oracles := make([]*fieldOracle, 0, 3)
	for _, hex := range testPrimes[:3] {
		oracles = append(oracles, newFieldOracle(f, hex))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) != 32 || len(b) != 32 {
			t.Skip("inputs are two 32-byte big-endian values")
		}
		for _, o := range oracles {
			o.check(t, a, b)
		}
	})
}

// TestSqrtPanicsOnOneModFour pins Sqrt's precondition: a p ≡ 1 (mod 4)
// field (P-224) has no single-exponentiation root and must not return
// a wrong one.
func TestSqrtPanicsOnOneModFour(t *testing.T) {
	o := newFieldOracle(t, testPrimes[1])
	defer func() {
		if recover() == nil {
			t.Fatal("Sqrt on P-224 did not panic")
		}
	}()
	var x Element
	o.f.Sqrt(&x, &x)
}
