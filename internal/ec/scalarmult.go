package ec

import "math/big"

// Scalar multiplication, by the kind of scalar:
//
//   - ScalarMult: k·P by a 5-bit wNAF over an on-the-fly odd-multiples
//     table. Its callers in the protocol stack pass secret scalars: the
//     Diffie–Hellman premasters, SCIANC's d·Q_CA and combined DH, and
//     the attacks that recompute them.
//   - ScalarBaseMult: k·G through a fixed-base comb over a cached
//     per-curve table (no doublings at all on the default backend).
//     Its callers pass secret scalars too: keys, nonces, ephemerals
//     and the left side of the ECQV reconstruction check.
//   - CombinedMultN: u1·G + Σ k_i·P_i on one doubling chain, the one
//     path for public scalars: ECQV extraction, the ECQV
//     reconstruction check and ECDSA verification. CombinedMult is its
//     one-point case, and MultTable.CombinedMult walks a precomputed
//     comb of Q instead of Q's chain.
//
// Each has two implementations: the default fixed-limb Montgomery
// backend (backend_fp.go, O(1) allocations per call) and the original
// math/big path below, retained as a differential oracle and
// selectable with -tags ec_purebig, where CombinedMultN sums
// independent multiplications. All are variable time; see the package
// comment.

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

// CombinedMult returns u1·G + u2·Q, the ECDSA verification of a key
// without a MultTable: CombinedMultN over the one point Q.
func (c *Curve) CombinedMult(q Point, u1, u2 *big.Int) Point {
	p, _ := c.CombinedMultN(u1, []Point{q}, []*big.Int{u2})
	return p
}

// CombinedMultN returns u1·G + Σ k_i·P_i, pairing points[i] with
// scalars[i], and reports whether Σ k_i·P_i is the point at infinity.
// Every point must be on c. The scalars are reduced modulo the group
// order; a zero scalar or an infinity point drops its term, and u1 = 0
// drops the base term. On the default backend the wNAF digits of every
// k_i share one doubling chain over per-point odd-multiple tables, each
// built only as far as its scalar's largest digit needs, u1·G comes
// through the comb, and one inversion ends it; the oracle path sums
// independent multiplications.
//
// It is the chain of every public-scalar product. CombinedMult and a
// MultTable without a comb run through it over one point, and it has
// three callers of its own. ecdsa.VerifyImplicit verifies a signature
// under an implicit-certificate key Q_U = e·P_U + Q_CA (the paper's
// equation (1)) without reconstructing Q_U, since
// u2·Q_U = (u2·e)·P_U + u2·Q_CA; its infinity report keeps the
// identity check, because on these prime-order curves u2·Q_U is
// infinity for a nonzero u2 exactly when Q_U is. ecqv.ExtractPublicKey
// computes Q_U itself with u1 = 0 over P_U and Q_CA, and rejects the
// identity on the same report. The ECQV reconstruction check
// (ecqv.ReconstructBatch) puts one point per certificate and Q_CA on
// the chain.
func (c *Curve) CombinedMultN(u1 *big.Int, points []Point, scalars []*big.Int) (Point, bool) {
	if len(points) != len(scalars) {
		panic("ec: CombinedMultN: points and scalars differ in length")
	}
	if c.useFP() {
		return c.combinedMultNFP(c.modN(u1), points, scalars)
	}
	return c.combinedMultNBig(u1, points, scalars)
}

// modN returns k when it already lies in [0, n) and a reduced copy
// otherwise, so that a reduced scalar costs no allocation.
func (c *Curve) modN(k *big.Int) *big.Int {
	if k.Sign() >= 0 && k.Cmp(c.N) < 0 {
		return k
	}
	return new(big.Int).Mod(k, c.N)
}

// combinedMultNBig is the math/big twin of CombinedMultN (the oracle
// backend and its differential reference): independent
// multiplications and their sum.
func (c *Curve) combinedMultNBig(u1 *big.Int, points []Point, scalars []*big.Int) (Point, bool) {
	var sum Point
	for i, p := range points {
		sum = c.addBig(sum, c.scalarMultBig(p, scalars[i]))
	}
	return c.addBig(c.scalarBaseMultBig(u1), sum), sum.IsInfinity()
}
