package fp

import (
	"math/big"
	"math/rand"
	"testing"
)

// limbsOf returns v (0 ≤ v < 2^256) as raw little-endian limbs.
func limbsOf(v *big.Int) Element {
	var e Element
	fillLimbs((*[Limbs]uint64)(&e), v)
	return e
}

// TestNewSelectsP256Reduction pins the dispatch: New flags the P-256
// prime, and only it, for the P-256 fold. A typo in the limb match would
// otherwise send P-256 down the generic path with every correctness
// test still passing.
func TestNewSelectsP256Reduction(t *testing.T) {
	for _, hex := range testPrimes {
		f, err := New(mustPrime(t, hex))
		if err != nil {
			t.Fatal(err)
		}
		if want := hex == testPrimes[0]; f.p256 != want {
			t.Errorf("p=%s: p256 = %v, want %v", hex, f.p256, want)
		}
	}
}

// TestRedP256MatchesSOS diffs the P-256 fold against the generic SOS
// and CIOS reductions: a copy of the P-256 Field with the fold
// switched off runs mulCIOS and sqrSOS, and on 10^5 random products
// and squares, plus crafted products that reach the corners of the
// final select, Mul and Sqr must return the same limbs from both
// Fields and the math/big value x·y·R⁻¹ mod p.
func TestRedP256MatchesSOS(t *testing.T) {
	p := mustPrime(t, testPrimes[0])
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	generic := *f
	generic.p256 = false
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	rInv := new(big.Int).ModInverse(new(big.Int).Mod(two256, p), p)
	pInv := new(big.Int).ModInverse(p, two256)

	// reduced runs both Fields' Mul, and Sqr too when x = y, on the raw
	// limbs x and y, and returns the value before the final select:
	// u = (x·y + m·p)/2^256 with m = −x·y·p⁻¹ mod 2^256, which every
	// Montgomery reduction of x·y computes.
	reduced := func(name string, x, y *Element) *big.Int {
		t.Helper()
		xy := new(big.Int).Mul(limbsValue(x[:]...), limbsValue(y[:]...))
		want := limbsOf(new(big.Int).Mod(new(big.Int).Mul(xy, rInv), p))
		var fold, sos Element
		f.Mul(&fold, x, y)
		generic.Mul(&sos, x, y)
		if fold != want || sos != want {
			t.Fatalf("%s: Mul(%x, %x): P-256 fold %x, CIOS %x, want %x", name, *x, *y, fold, sos, want)
		}
		if *x == *y {
			f.Sqr(&fold, x)
			generic.Sqr(&sos, x)
			if fold != want || sos != want {
				t.Fatalf("%s: Sqr(%x): P-256 fold %x, SOS %x, want %x", name, *x, fold, sos, want)
			}
		}
		m := new(big.Int).Mul(xy, pInv)
		m.Neg(m).Mod(m, two256)
		return m.Mul(m, p).Add(m, xy).Rsh(m, 256)
	}

	r := rand.New(rand.NewSource(29))
	overflows := 0
	for i := 0; i < 100000; i++ {
		x, y := limbsOf(new(big.Int).Rand(r, p)), limbsOf(new(big.Int).Rand(r, p))
		if reduced("random product", &x, &y).Cmp(two256) >= 0 {
			overflows++
		}
		reduced("random square", &x, &x)
	}
	if overflows == 0 {
		t.Fatal("no random product set the overflow bit")
	}

	// Raw limbs x = p − 1 = −1 and y = −z·R mod p have the Montgomery
	// product z; their product is large enough that the value before
	// the final select is z + p whenever that is below 2p.
	pm1 := new(big.Int).Sub(p, big.NewInt(1))
	rModP := new(big.Int).Mod(two256, p)
	negZR := func(z *big.Int) *big.Int {
		v := new(big.Int).Mul(z, rModP)
		return v.Neg(v).Mod(v, p)
	}
	for _, c := range []struct {
		name string
		y    *big.Int // x is p − 1
		u    *big.Int // the value before the final select; nil: below p
	}{
		{"(p−1)²", pm1, nil},
		{"u = p + 1, t − p taken", negZR(big.NewInt(1)), new(big.Int).Add(p, big.NewInt(1))},
		{"u = 2^256, overflow bit set", negZR(rModP), two256},
	} {
		x, y := limbsOf(pm1), limbsOf(c.y)
		u := reduced(c.name, &x, &y)
		if (c.u == nil && u.Cmp(p) >= 0) || (c.u != nil && u.Cmp(c.u) != 0) {
			t.Fatalf("%s: u = %x, the case no longer reaches its corner", c.name, u)
		}
	}
}

// limbsValue returns the integer held by little-endian 64-bit words.
func limbsValue(words ...uint64) *big.Int {
	v := new(big.Int)
	for i := len(words) - 1; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(words[i]))
	}
	return v
}
