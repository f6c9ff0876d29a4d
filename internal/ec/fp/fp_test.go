package fp

import (
	"math/big"
	"math/rand"
	"testing"
)

// The three bundled curve primes plus a small prime to exercise zero
// top limbs aggressively.
var testPrimes = []string{
	"ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", // P-256
	"ffffffffffffffffffffffffffffffff000000000000000000000001",         // P-224
	"fffffffffffffffffffffffffffffffeffffffffffffffff",                 // P-192
	"fffffffb", // 2^32 − 5, exercises three zero limbs
}

func mustPrime(t *testing.T, hex string) *big.Int {
	t.Helper()
	p, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		t.Fatalf("bad prime constant %s", hex)
	}
	return p
}

// edgeValues returns the boundary cases every op must survive:
// 0, 1, 2, p−2, p−1, plus non-canonical inputs p, p+1, −1, −p−5 and a
// value far above p (all must reduce identically to the big.Int oracle).
func edgeValues(p *big.Int) []*big.Int {
	one := big.NewInt(1)
	vals := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Sub(p, one),
		new(big.Int).Set(p),
		new(big.Int).Add(p, one),
		big.NewInt(-1),
		new(big.Int).Neg(new(big.Int).Add(p, big.NewInt(5))),
		new(big.Int).Mul(p, big.NewInt(97)),
	}
	return vals
}

func randValues(p *big.Int, r *rand.Rand, n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int).Rand(r, p)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	for _, hex := range testPrimes {
		p := mustPrime(t, hex)
		f, err := New(p)
		if err != nil {
			t.Fatalf("New(%s): %v", hex, err)
		}
		r := rand.New(rand.NewSource(1))
		for _, v := range append(edgeValues(p), randValues(p, r, 50)...) {
			var e Element
			f.FromBig(&e, v)
			want := new(big.Int).Mod(v, p)
			if got := f.ToBig(&e); got.Cmp(want) != 0 {
				t.Fatalf("p=%s: roundtrip(%v) = %v, want %v", hex, v, got, want)
			}
		}
	}
}

func TestNewRejectsBadModulus(t *testing.T) {
	for _, v := range []*big.Int{
		big.NewInt(0),
		big.NewInt(-7),
		big.NewInt(10),                       // even
		new(big.Int).Lsh(big.NewInt(1), 300), // too wide (and even)
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 257), big.NewInt(1)), // odd but too wide
	} {
		if _, err := New(v); err == nil {
			t.Errorf("New(%v) accepted an invalid modulus", v)
		}
	}
}

// TestDifferentialOps drives every field op against the math/big
// oracle over edge values and a randomized sweep.
func TestDifferentialOps(t *testing.T) {
	for _, hex := range testPrimes {
		p := mustPrime(t, hex)
		f, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(2))
		vals := append(edgeValues(p), randValues(p, r, 40)...)

		for _, a := range vals {
			var ea Element
			f.FromBig(&ea, a)
			am := new(big.Int).Mod(a, p)

			// Neg
			var got Element
			f.Neg(&got, &ea)
			want := new(big.Int).Neg(am)
			want.Mod(want, p)
			if g := f.ToBig(&got); g.Cmp(want) != 0 {
				t.Fatalf("p=%s: Neg(%v) = %v, want %v", hex, am, g, want)
			}
			// Sqr
			f.Sqr(&got, &ea)
			want.Mul(am, am).Mod(want, p)
			if g := f.ToBig(&got); g.Cmp(want) != 0 {
				t.Fatalf("p=%s: Sqr(%v) = %v, want %v", hex, am, g, want)
			}
			// Inv (skip zero: no inverse; fp returns 0 by convention)
			f.Inv(&got, &ea)
			if am.Sign() == 0 {
				if !f.IsZero(&got) {
					t.Fatalf("p=%s: Inv(0) != 0", hex)
				}
			} else {
				want.ModInverse(am, p)
				if g := f.ToBig(&got); g.Cmp(want) != 0 {
					t.Fatalf("p=%s: Inv(%v) = %v, want %v", hex, am, g, want)
				}
			}

			for _, b := range vals {
				var eb Element
				f.FromBig(&eb, b)
				bm := new(big.Int).Mod(b, p)

				f.Add(&got, &ea, &eb)
				want.Add(am, bm).Mod(want, p)
				if g := f.ToBig(&got); g.Cmp(want) != 0 {
					t.Fatalf("p=%s: Add(%v, %v) = %v, want %v", hex, am, bm, g, want)
				}
				f.Sub(&got, &ea, &eb)
				want.Sub(am, bm).Mod(want, p)
				if g := f.ToBig(&got); g.Cmp(want) != 0 {
					t.Fatalf("p=%s: Sub(%v, %v) = %v, want %v", hex, am, bm, g, want)
				}
				f.Mul(&got, &ea, &eb)
				want.Mul(am, bm).Mod(want, p)
				if g := f.ToBig(&got); g.Cmp(want) != 0 {
					t.Fatalf("p=%s: Mul(%v, %v) = %v, want %v", hex, am, bm, g, want)
				}
			}
		}
	}
}

// TestAliasing verifies that in-place calls (z aliasing x and/or y)
// produce the same results as the non-aliased form.
func TestAliasing(t *testing.T) {
	p := mustPrime(t, testPrimes[0])
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := new(big.Int).Rand(r, p)
		b := new(big.Int).Rand(r, p)
		var ea, eb, ref Element
		f.FromBig(&ea, a)
		f.FromBig(&eb, b)

		// z aliases x
		f.Mul(&ref, &ea, &eb)
		x := ea
		f.Mul(&x, &x, &eb)
		if !f.Equal(&x, &ref) {
			t.Fatalf("Mul alias z=x mismatch")
		}
		// z aliases y
		y := eb
		f.Mul(&y, &ea, &y)
		if !f.Equal(&y, &ref) {
			t.Fatalf("Mul alias z=y mismatch")
		}
		// all three alias (squaring)
		f.Sqr(&ref, &ea)
		s := ea
		f.Mul(&s, &s, &s)
		if !f.Equal(&s, &ref) {
			t.Fatalf("Mul alias z=x=y mismatch")
		}
		// Add/Sub aliasing
		f.Add(&ref, &ea, &eb)
		x = ea
		f.Add(&x, &x, &eb)
		if !f.Equal(&x, &ref) {
			t.Fatalf("Add alias mismatch")
		}
		f.Sub(&ref, &ea, &eb)
		x = ea
		f.Sub(&x, &x, &eb)
		if !f.Equal(&x, &ref) {
			t.Fatalf("Sub alias mismatch")
		}
	}
}

func TestEqualIsZero(t *testing.T) {
	p := mustPrime(t, testPrimes[0])
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var z, o Element
	f.SetZero(&z)
	if !f.IsZero(&z) {
		t.Fatal("SetZero not zero")
	}
	f.SetOne(&o)
	if f.IsZero(&o) || f.Equal(&z, &o) {
		t.Fatal("one compares equal to zero")
	}
	if got := f.ToBig(&o); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("One = %v, want 1", got)
	}
	// p reduces to zero even from a non-canonical encoding.
	var e Element
	f.FromBig(&e, f.Modulus())
	if !f.IsZero(&e) {
		t.Fatal("FromBig(p) not zero")
	}
}

// benchPrimes names the curve primes the kernel benchmarks table over
// (the first three testPrimes).
var benchPrimes = []string{"P-256", "P-224", "P-192"}

// benchPerPrime runs body as one sub-benchmark per curve prime, on two
// random elements of that field. Random operands keep every carry and
// select of the kernels taken about as often as the point formulas
// take them.
func benchPerPrime(b *testing.B, body func(b *testing.B, f *Field, x, y Element)) {
	for i, name := range benchPrimes {
		b.Run(name, func(b *testing.B) {
			f, x, y := benchOperands(b, testPrimes[i])
			b.ReportAllocs()
			b.ResetTimer()
			body(b, f, x, y)
		})
	}
}

func BenchmarkMul(b *testing.B) {
	benchPerPrime(b, func(b *testing.B, f *Field, x, y Element) {
		for i := 0; i < b.N; i++ {
			f.Mul(&x, &x, &y)
		}
	})
}

// BenchmarkAdd and BenchmarkSub chain x ← x ± y with a random y, so
// the reduction's carry is taken about half the time — the case a
// branch on the carry mispredicts and the masked select does not.
func BenchmarkAdd(b *testing.B) {
	f, x, y := benchOperands(b, testPrimes[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(&x, &x, &y)
	}
}

func BenchmarkSub(b *testing.B) {
	f, x, y := benchOperands(b, testPrimes[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Sub(&x, &x, &y)
	}
}

// benchOperands returns the field of the prime hex and two random
// elements of it.
func benchOperands(b *testing.B, hex string) (*Field, Element, Element) {
	p, _ := new(big.Int).SetString(hex, 16)
	f, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	var x, y Element
	f.FromBig(&x, new(big.Int).Rand(r, p))
	f.FromBig(&y, new(big.Int).Rand(r, p))
	return f, x, y
}

func BenchmarkInv(b *testing.B) {
	benchPerPrime(b, func(b *testing.B, f *Field, x, _ Element) {
		for i := 0; i < b.N; i++ {
			f.Inv(&x, &x)
		}
	})
}
