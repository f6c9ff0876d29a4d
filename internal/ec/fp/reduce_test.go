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
// prime, and only it, for redP256. A typo in the limb match would
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

// TestRedP256MatchesSOS diffs redP256 against the generic SOS rows of
// redSOS on the same 512-bit products — 10^5 random products and
// squares, plus crafted products that reach the corners of the final
// select — and requires the same overflow bit and limbs. Each product
// is checked against math/big first.
func TestRedP256MatchesSOS(t *testing.T) {
	p := mustPrime(t, testPrimes[0])
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)

	// reduced runs both reductions on the product w of x and y and
	// returns the value before the final select, hi·2^256 + r.
	reduced := func(name string, x, y *Element, w [2 * Limbs]uint64) *big.Int {
		t.Helper()
		want := new(big.Int).Mul(limbsValue(x[:]...), limbsValue(y[:]...))
		if got := limbsValue(w[:]...); got.Cmp(want) != 0 {
			t.Fatalf("%s: product of %x, %x = %x, want %x", name, *x, *y, got, want)
		}
		hi, r0, r1, r2, r3 := redP256(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7])
		shi, s0, s1, s2, s3 := f.redSOS(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7])
		if hi != shi || r0 != s0 || r1 != s1 || r2 != s2 || r3 != s3 {
			t.Fatalf("%s: %x·%x: redP256 = %d %x, redSOS = %d %x",
				name, *x, *y, hi, [4]uint64{r0, r1, r2, r3}, shi, [4]uint64{s0, s1, s2, s3})
		}
		return limbsValue(r0, r1, r2, r3, hi)
	}
	product := func(x, y *Element) (w [2 * Limbs]uint64) {
		w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = mul512(x, y)
		return w
	}
	square := func(x *Element) (w [2 * Limbs]uint64) {
		w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = sqr512(x)
		return w
	}

	r := rand.New(rand.NewSource(29))
	overflows := 0
	for i := 0; i < 100000; i++ {
		x, y := limbsOf(new(big.Int).Rand(r, p)), limbsOf(new(big.Int).Rand(r, p))
		if reduced("random product", &x, &y, product(&x, &y)).Cmp(two256) >= 0 {
			overflows++
		}
		reduced("random square", &x, &x, square(&x))
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
		u := reduced(c.name, &x, &y, product(&x, &y))
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
