package ec

import "math/big"

// Scalar multiplication. Three strategies are provided:
//
//   - ScalarMult: 5-bit wNAF with an on-the-fly odd-multiples table,
//     used for arbitrary points (ECDH premaster, ECQV reconstruction).
//   - ScalarBaseMult: fixed-base comb over a cached per-curve table
//     (no doublings at all on the default backend).
//   - CombinedMult: u1·G + u2·Q, the hot path of ECDSA verification.
//   - CombinedMult2: u1·G + a·P + b·Q, ECDSA verification under an
//     ECQV key Q_U = e·P_U + Q_CA that was never reconstructed.
//
// Each strategy has two implementations: the default fixed-limb
// Montgomery backend (backend_fp.go, O(1) allocations per call) and
// the original math/big path below, retained as a differential oracle
// and selectable with -tags ec_purebig. All strategies are variable
// time; see the package comment.

const wnafWindow = 5 // window width; table holds 2^(w-2) odd multiples

// wnaf returns the width-w non-adjacent form of k, least significant
// digit first. Digits are odd integers in (−2^(w−1), 2^(w−1)) or zero.
// One scratch big.Int serves every digit; the only remaining per-call
// allocations are the scratch, the working copy of k and the digit
// slice. (The fp backend uses the fully allocation-free wnafFixed.)
func wnaf(k *big.Int, w uint) []int8 {
	if k.Sign() == 0 {
		return nil
	}
	digits := make([]int8, 0, k.BitLen()+1)
	d := new(big.Int).Set(k)
	scratch := new(big.Int)
	mod := int64(1) << w        // 2^w
	half := int64(1) << (w - 1) // 2^(w−1)
	for d.Sign() > 0 {
		if d.Bit(0) == 1 {
			r := scratch.And(d, scratch.SetInt64(mod-1)).Int64()
			if r >= half {
				r -= mod
			}
			digits = append(digits, int8(r))
			d.Sub(d, scratch.SetInt64(r))
		} else {
			digits = append(digits, 0)
		}
		d.Rsh(d, 1)
	}
	return digits
}

// oddMultiples returns [P, 3P, 5P, ..., (2^(w−1)−1)P] in Jacobian form.
func (c *Curve) oddMultiples(p Point, w uint) []*jacobianPoint {
	count := 1 << (w - 2)
	table := make([]*jacobianPoint, count)
	table[0] = c.toJacobian(p)
	twoP := c.jacDouble(table[0])
	for i := 1; i < count; i++ {
		table[i] = c.jacAdd(table[i-1], twoP)
	}
	return table
}

// scalarMultWNAF evaluates k·P given a precomputed odd-multiples table.
func (c *Curve) scalarMultWNAF(table []*jacobianPoint, k *big.Int) *jacobianPoint {
	digits := wnaf(k, wnafWindow)
	acc := c.jacInfinity()
	for i := len(digits) - 1; i >= 0; i-- {
		acc = c.jacDouble(acc)
		d := digits[i]
		switch {
		case d > 0:
			acc = c.jacAdd(acc, table[(d-1)/2])
		case d < 0:
			acc = c.jacAdd(acc, c.jacNeg(table[(-d-1)/2]))
		}
	}
	return acc
}

// reduceScalar returns k mod n, or nil when the result is zero.
func (c *Curve) reduceScalar(k *big.Int) *big.Int {
	kr := new(big.Int).Mod(k, c.N)
	if kr.Sign() == 0 {
		return nil
	}
	return kr
}

// ScalarMult returns k·P. The scalar is reduced modulo the group order;
// k ≡ 0 or P = ∞ yields the point at infinity.
func (c *Curve) ScalarMult(p Point, k *big.Int) Point {
	if !c.useFP() {
		return c.scalarMultBig(p, k)
	}
	if p.IsInfinity() {
		return Point{}
	}
	kr := c.reduceScalar(k)
	if kr == nil {
		return Point{}
	}
	return c.scalarMultFP(p, kr)
}

// scalarMultBig is the math/big wNAF path, exposed internally as the
// differential oracle for the fp backend.
func (c *Curve) scalarMultBig(p Point, k *big.Int) Point {
	if p.IsInfinity() {
		return Point{}
	}
	kr := c.reduceScalar(k)
	if kr == nil {
		return Point{}
	}
	table := c.oddMultiples(p, wnafWindow)
	return c.fromJacobian(c.scalarMultWNAF(table, kr))
}

// ScalarMultNaive is the schoolbook double-and-add ladder, retained as
// a correctness oracle and as the baseline of the scalar-multiplication
// ablation bench. It runs on the same field backend as ScalarMult so
// the ablation isolates the recoding algorithm, not the field layer.
func (c *Curve) ScalarMultNaive(p Point, k *big.Int) Point {
	if p.IsInfinity() {
		return Point{}
	}
	kr := c.reduceScalar(k)
	if kr == nil {
		return Point{}
	}
	if c.useFP() {
		return c.scalarMultNaiveFP(p, kr)
	}
	acc := c.jacInfinity()
	add := c.toJacobian(p)
	for i := kr.BitLen() - 1; i >= 0; i-- {
		acc = c.jacDouble(acc)
		if kr.Bit(i) == 1 {
			acc = c.jacAdd(acc, add)
		}
	}
	return c.fromJacobian(acc)
}

// batchToAffine converts Jacobian points to affine with a single field
// inversion (Montgomery's trick): invert the product of all Z values,
// then peel off individual inverses by multiplication.
func (c *Curve) batchToAffine(points []*jacobianPoint) []Point {
	n := len(points)
	out := make([]Point, n)
	// prefix[i] = z_0 · z_1 · … · z_{i-1}
	prefix := make([]*big.Int, n+1)
	prefix[0] = big.NewInt(1)
	for i, p := range points {
		if p.isInfinity() {
			prefix[i+1] = prefix[i]
			continue
		}
		prefix[i+1] = modMul(prefix[i], p.z, c.P)
	}
	inv, err := modInv(prefix[n], c.P)
	if err != nil {
		// Only possible if every point was infinity.
		return out
	}
	for i := n - 1; i >= 0; i-- {
		p := points[i]
		if p.isInfinity() {
			continue
		}
		zinv := modMul(prefix[i], inv, c.P) // z_i⁻¹
		inv = modMul(inv, p.z, c.P)
		zinv2 := modSqr(zinv, c.P)
		out[i] = Point{
			X: modMul(p.x, zinv2, c.P),
			Y: modMul(p.y, modMul(zinv2, zinv, c.P), c.P),
		}
	}
	return out
}

// baseMultiples returns the cached odd-multiples table for G in affine
// form, enabling the cheaper mixed addition in the big-path wNAF loop.
func (c *Curve) baseMultiples() []Point {
	c.baseOnce.Do(func() {
		c.baseTable = c.batchToAffine(c.oddMultiples(c.Generator(), wnafWindow))
	})
	return c.baseTable
}

// scalarMultWNAFAffine is scalarMultWNAF against an affine table,
// using mixed (Jacobian + affine) additions.
func (c *Curve) scalarMultWNAFAffine(table []Point, k *big.Int) *jacobianPoint {
	digits := wnaf(k, wnafWindow)
	acc := c.jacInfinity()
	for i := len(digits) - 1; i >= 0; i-- {
		acc = c.jacDouble(acc)
		d := digits[i]
		switch {
		case d > 0:
			acc = c.jacAddAffine(acc, table[(d-1)/2])
		case d < 0:
			acc = c.jacAddAffine(acc, c.Neg(table[(-d-1)/2]))
		}
	}
	return acc
}

// ScalarBaseMult returns k·G. On the default backend this walks the
// fixed-base comb table (mixed additions only); the oracle path uses
// the cached affine odd-multiples table.
func (c *Curve) ScalarBaseMult(k *big.Int) Point {
	if !c.useFP() {
		return c.scalarBaseMultBig(k)
	}
	kr := c.reduceScalar(k)
	if kr == nil {
		return Point{}
	}
	return c.scalarBaseMultFP(kr)
}

// scalarBaseMultBig is the math/big base-point path (differential
// oracle).
func (c *Curve) scalarBaseMultBig(k *big.Int) Point {
	kr := c.reduceScalar(k)
	if kr == nil {
		return Point{}
	}
	return c.fromJacobian(c.scalarMultWNAFAffine(c.baseMultiples(), kr))
}

// CombinedMult returns u1·G + u2·Q — the ECDSA verification hot path.
// The default backend runs the u2 chain in fixed-limb wNAF and folds
// the base term in through the comb table; the oracle path uses
// Strauss–Shamir interleaving.
func (c *Curve) CombinedMult(q Point, u1, u2 *big.Int) Point {
	u1r := new(big.Int).Mod(u1, c.N)
	u2r := new(big.Int).Mod(u2, c.N)
	if q.IsInfinity() || u2r.Sign() == 0 {
		return c.ScalarBaseMult(u1r)
	}
	if u1r.Sign() == 0 {
		return c.ScalarMult(q, u2r)
	}
	if c.useFP() {
		return c.combinedMultFP(q, u1r, u2r)
	}
	return c.combinedMultBigReduced(q, u1r, u2r)
}

// CombinedMult2 returns u1·G + a·P + b·Q and reports whether
// a·P + b·Q is the point at infinity. The scalars are reduced modulo
// the group order; a zero scalar or an infinity point drops its term.
// On the default backend the wNAF digits of a and b share one doubling
// chain over per-call odd-multiple tables of P and Q, and u1·G comes
// through the comb table, with one affine conversion at the end; the
// oracle path sums three independent multiplications.
//
// It verifies an ECDSA signature under an implicit-certificate key
// Q_U = e·P_U + Q_CA (the paper's equation (1)) without reconstructing
// Q_U: u2·Q_U = (u2·e)·P_U + u2·Q_CA. The infinity report keeps the
// identity check: on these prime-order curves u2·Q_U is infinity for
// a nonzero u2 exactly when Q_U is.
func (c *Curve) CombinedMult2(p, q Point, u1, a, b *big.Int) (Point, bool) {
	u1r := new(big.Int).Mod(u1, c.N)
	ar := new(big.Int).Mod(a, c.N)
	br := new(big.Int).Mod(b, c.N)
	if c.useFP() {
		return c.combinedMult2FP(p, q, u1r, ar, br)
	}
	return c.combinedMult2Big(p, q, u1r, ar, br)
}

// combinedMult2Big is the math/big twin of CombinedMult2 (the oracle
// backend and its differential reference): three independent
// multiplications and two additions.
func (c *Curve) combinedMult2Big(p, q Point, u1, a, b *big.Int) (Point, bool) {
	pq := c.addBig(c.scalarMultBig(p, a), c.scalarMultBig(q, b))
	return c.addBig(c.scalarBaseMultBig(u1), pq), pq.IsInfinity()
}

// combinedMultBig is the math/big Strauss–Shamir path (differential
// oracle).
func (c *Curve) combinedMultBig(q Point, u1, u2 *big.Int) Point {
	u1r := new(big.Int).Mod(u1, c.N)
	u2r := new(big.Int).Mod(u2, c.N)
	if q.IsInfinity() || u2r.Sign() == 0 {
		return c.scalarBaseMultBig(u1r)
	}
	if u1r.Sign() == 0 {
		return c.scalarMultBig(q, u2r)
	}
	return c.combinedMultBigReduced(q, u1r, u2r)
}

// straussInterleave is the shared doubling chain of Strauss–Shamir
// interleaving over reduced nonzero scalars: base-table mixed
// additions for u1's digits, with qAdd folding in each nonzero digit
// of u2's Q term. Both CombinedMult oracle paths (fresh Jacobian
// table and cached affine MultTable) share this loop.
func (c *Curve) straussInterleave(u1r, u2r *big.Int, qAdd func(*jacobianPoint, int8) *jacobianPoint) *jacobianPoint {
	gTable := c.baseMultiples() // affine: mixed additions
	d1 := wnaf(u1r, wnafWindow)
	d2 := wnaf(u2r, wnafWindow)

	n := len(d1)
	if len(d2) > n {
		n = len(d2)
	}
	acc := c.jacInfinity()
	for i := n - 1; i >= 0; i-- {
		acc = c.jacDouble(acc)
		if i < len(d1) {
			if d := d1[i]; d > 0 {
				acc = c.jacAddAffine(acc, gTable[(d-1)/2])
			} else if d < 0 {
				acc = c.jacAddAffine(acc, c.Neg(gTable[(-d-1)/2]))
			}
		}
		if i < len(d2) {
			if d := d2[i]; d != 0 {
				acc = qAdd(acc, d)
			}
		}
	}
	return acc
}

// combinedMultBigReduced interleaves against an on-the-fly Jacobian
// odd-multiples table of Q, nearly halving the doublings of two
// independent multiplications.
func (c *Curve) combinedMultBigReduced(q Point, u1r, u2r *big.Int) Point {
	qAdd := c.qTableAdd(c.oddMultiples(q, wnafWindow))
	return c.fromJacobian(c.straussInterleave(u1r, u2r, qAdd))
}

// qTableAdd adapts a Jacobian odd-multiples table of Q into the digit
// callback straussInterleave expects.
func (c *Curve) qTableAdd(qTable []*jacobianPoint) func(*jacobianPoint, int8) *jacobianPoint {
	return func(acc *jacobianPoint, d int8) *jacobianPoint {
		if d > 0 {
			return c.jacAdd(acc, qTable[(d-1)/2])
		}
		return c.jacAdd(acc, c.jacNeg(qTable[(-d-1)/2]))
	}
}
