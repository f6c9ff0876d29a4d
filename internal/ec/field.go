package ec

import (
	"errors"
	"math/big"
)

// Field helpers: small wrappers over math/big that keep all modular
// reduction in one place. Every function returns a fresh big.Int and
// never aliases its arguments.

// reduce sets r to r mod p and returns it. A sum or difference of
// reduced operands lies in [−p, 2p), where one addition or subtraction
// of p is the whole reduction; any other r takes the division of Mod.
// The result is Mod's either way.
func reduce(r, p *big.Int) *big.Int {
	if r.Sign() < 0 {
		r.Add(r, p)
	} else if r.Cmp(p) >= 0 {
		r.Sub(r, p)
	}
	if r.Sign() < 0 || r.Cmp(p) >= 0 {
		r.Mod(r, p)
	}
	return r
}

// modAdd returns (a + b) mod p.
func modAdd(a, b, p *big.Int) *big.Int {
	return reduce(new(big.Int).Add(a, b), p)
}

// modSub returns (a − b) mod p.
func modSub(a, b, p *big.Int) *big.Int {
	return reduce(new(big.Int).Sub(a, b), p)
}

// modMul returns (a · b) mod p.
func modMul(a, b, p *big.Int) *big.Int {
	r := new(big.Int).Mul(a, b)
	return r.Mod(r, p)
}

// modSqr returns a² mod p.
func modSqr(a, p *big.Int) *big.Int {
	r := new(big.Int).Mul(a, a)
	return r.Mod(r, p)
}

// modNeg returns (−a) mod p.
func modNeg(a, p *big.Int) *big.Int {
	return reduce(new(big.Int).Neg(a), p)
}

// modInv returns a⁻¹ mod p. It returns an error when a ≡ 0 (mod p),
// which has no inverse.
func modInv(a, p *big.Int) (*big.Int, error) {
	if new(big.Int).Mod(a, p).Sign() == 0 {
		return nil, errors.New("ec: no modular inverse of zero")
	}
	r := new(big.Int).ModInverse(a, p)
	if r == nil {
		return nil, errors.New("ec: modular inverse does not exist")
	}
	return r, nil
}

// ErrNotSquare is returned by modSqrt when the argument is a quadratic
// non-residue, i.e. the point-decompression x has no matching y.
var ErrNotSquare = errors.New("ec: value is not a quadratic residue")

// modSqrt returns a square root of a modulo p, for primes p ≡ 3 (mod 4)
// (true for all bundled curves): r = a^((p+1)/4) mod p. It verifies the
// result and returns ErrNotSquare when a has no square root.
func modSqrt(a, p *big.Int) (*big.Int, error) {
	if p.Bit(0) != 1 || p.Bit(1) != 1 {
		// Fall back to the general Tonelli–Shanks in math/big.
		r := new(big.Int).ModSqrt(a, p)
		if r == nil {
			return nil, ErrNotSquare
		}
		return r, nil
	}
	exp := new(big.Int).Add(p, big.NewInt(1))
	exp.Rsh(exp, 2)
	r := new(big.Int).Exp(a, exp, p)
	if modSqr(r, p).Cmp(new(big.Int).Mod(a, p)) != 0 {
		return nil, ErrNotSquare
	}
	return r, nil
}
