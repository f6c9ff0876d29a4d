package ec

import (
	"math/big"
	"testing"
)

// TestFieldHelpersMatchMod pins modAdd, modSub and modNeg to their
// plain big.Int.Mod form on operands at and past the edges of [0, p),
// where a single addition or subtraction of p does or does not reduce,
// and checks that no helper writes to or returns an operand.
func TestFieldHelpersMatchMod(t *testing.T) {
	for _, c := range Curves() {
		p := c.P
		one := big.NewInt(1)
		twoP := new(big.Int).Lsh(p, 1)
		ops := []*big.Int{
			big.NewInt(0),
			one,
			new(big.Int).Sub(p, one),
			p,
			new(big.Int).Sub(twoP, one),
			twoP,
			big.NewInt(-1),
			new(big.Int).Neg(new(big.Int).Add(p, one)),
		}
		mod := func(r *big.Int) *big.Int { return r.Mod(r, p) }
		check := func(name string, got, want *big.Int, args ...*big.Int) {
			t.Helper()
			if got.Cmp(want) != 0 {
				t.Errorf("%s: %s%v = %v, want %v", c.Name, name, args, got, want)
			}
			for _, a := range args {
				if got == a {
					t.Errorf("%s: %s%v returned its operand", c.Name, name, args)
				}
			}
		}
		for _, a := range ops {
			a0 := new(big.Int).Set(a)
			check("modNeg", modNeg(a, p), mod(new(big.Int).Neg(a)), a)
			for _, b := range ops {
				b0 := new(big.Int).Set(b)
				check("modAdd", modAdd(a, b, p), mod(new(big.Int).Add(a, b)), a, b)
				check("modSub", modSub(a, b, p), mod(new(big.Int).Sub(a, b)), a, b)
				if b.Cmp(b0) != 0 {
					t.Fatalf("%s: operand %v overwritten with %v", c.Name, b0, b)
				}
			}
			if a.Cmp(a0) != 0 {
				t.Fatalf("%s: operand %v overwritten with %v", c.Name, a0, a)
			}
		}
	}
}
