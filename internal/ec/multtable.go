package ec

import (
	"math/big"
	"math/bits"
)

// MultTable is a precomputed scalar-multiplication table for one fixed
// point Q — typically a peer's long-term or ECQV-reconstructed public
// key. On the default backend it is a signed comb with four teeth
// d = ⌈bitlen(n)/4⌉ bits apart (64 on P-256): eight affine points.
// Building it costs 3d doublings, ten additions and one batched
// inversion; afterwards every CombinedMult against Q walks Q's term in
// d − 1 doublings and d mixed additions (63 and 64 on P-256) instead
// of a full-length double-and-add chain. That is the win for fleets:
// repeated STS handshakes and rekeys against the same static peer stop
// paying the precomputation and three quarters of the doublings.
//
// A MultTable is immutable after construction and safe for concurrent
// use.
type MultTable struct {
	c *Curve
	q Point

	fpTab []fpAffine // the signed comb T[0..7], Montgomery form; nil without one
}

// maxCombSpacing bounds Curve.combSpacing for a 256-bit order.
const maxCombSpacing = 64

// NewMultTable precomputes the table for q: on the default backend the
// signed comb T[j] = 2^{3d}·Q + Σ_{b<3} (2·j_b − 1)·2^{bd}·Q, j = 0..7
// (j_b the bits of j), in affine form. The oracle backend and an
// infinity q build no comb, and the table's CombinedMult is then
// Curve.CombinedMult.
func (c *Curve) NewMultTable(q Point) *MultTable {
	t := &MultTable{c: c, q: q.Clone()}
	if c.useFP() && !q.IsInfinity() {
		t.fpTab = c.fpCombTable(q)
	}
	return t
}

// fpCombTable builds the signed comb of a finite q. With P_b = 2^{bd}·Q,
// T[0] = P_3 − P_2 − P_1 − P_0, and T[j] = T[j − 2^b] + 2·P_b for b the
// top bit of j: 3d doublings (which pass through every 2·P_b on the
// way) and ten additions. No entry is infinity: each coefficient
// ±1 ± 2^d ± 2^{2d} + 2^{3d} is nonzero and below n.
func (c *Curve) fpCombTable(q Point) []fpAffine {
	d := c.combSpacing
	var s fpScratch
	var tooth, twice [3]fpJac // P_b and 2·P_b for b < 3
	var top fpJac
	c.fpFromAffinePoint(&top, q)
	for b := range tooth {
		tooth[b] = top
		c.fpDouble(&top, &s)
		twice[b] = top
		for i := 1; i < d; i++ {
			c.fpDouble(&top, &s)
		}
	}
	var jacs [8]fpJac
	jacs[0] = top // P_3
	for b := range tooth {
		c.fpAddJac(&jacs[0], &tooth[b], true, &s)
	}
	for j := 1; j < len(jacs); j++ {
		b := bits.Len(uint(j)) - 1
		jacs[j] = jacs[j-(1<<b)]
		c.fpAddJac(&jacs[j], &twice[b], false, &s)
	}
	tab := make([]fpAffine, len(jacs))
	c.fpBatchToAffine(jacs[:], tab)
	return tab
}

// combDigits recodes a reduced nonzero scalar k for the signed comb
// of spacing d, writing one digit per column into a caller buffer
// without heap allocation, least significant column first. It also
// reports whether the sum of the columns must be negated.
//
// The comb needs an odd scalar, so an even k becomes k' = n − k (odd,
// as n is) and the sum is negated. With t = 4d and
// m = (k' + 2^t − 1)/2, k' = Σ_{i<t} (2m_i − 1)·2^i: every bit of m
// stands for ±1. Column i is Σ_{b<4} (2m_{i+bd} − 1)·2^{bd}·Q. When
// m_{i+3d} = 1 that is +T[j], j = m_i | m_{i+d}<<1 | m_{i+2d}<<2;
// otherwise it is −T[7 − j]. The digit is j + 1 or j − 8: its
// magnitude less one is the table index, its sign the entry's sign.
func combDigits(k, n *[4]uint64, d int, buf []int8) ([]int8, bool) {
	m := *k
	neg := m[0]&1 == 0
	if neg {
		var b uint64
		m[0], b = bits.Sub64(n[0], m[0], 0)
		m[1], b = bits.Sub64(n[1], m[1], b)
		m[2], b = bits.Sub64(n[2], m[2], b)
		m[3], _ = bits.Sub64(n[3], m[3], b)
	}
	// k' is odd and below 2^t, so m = (k' − 1)/2 + 2^{t−1} is a shift
	// and one set bit.
	m[0] = m[0]>>1 | m[1]<<63
	m[1] = m[1]>>1 | m[2]<<63
	m[2] = m[2]>>1 | m[3]<<63
	m[3] >>= 1
	top := 4*d - 1
	m[top>>6] |= 1 << (top & 63)

	digits := buf[:d]
	for i := range digits {
		j := int8(limbBits(&m, i, 1) | limbBits(&m, i+d, 1)<<1 | limbBits(&m, i+2*d, 1)<<2)
		if limbBits(&m, i+3*d, 1) == 1 {
			digits[i] = j + 1
		} else {
			digits[i] = j - 8
		}
	}
	return digits, neg
}

// fpMult sets acc = k·Q through the signed comb (fp backend): one
// doubling and one mixed addition per column, the first doubling
// being of infinity. k must be reduced and nonzero.
func (t *MultTable) fpMult(acc *fpJac, k *[4]uint64, s *fpScratch) {
	c := t.c
	var buf [maxCombSpacing]int8
	digits, neg := combDigits(k, &c.nLimbs, c.combSpacing, buf[:])
	c.fpSetInfinity(acc)
	for i := len(digits) - 1; i >= 0; i-- {
		c.fpDouble(acc, s)
		if d := digits[i]; d > 0 {
			c.fpAddAffine(acc, &t.fpTab[d-1], neg, s)
		} else {
			c.fpAddAffine(acc, &t.fpTab[-d-1], !neg, s)
		}
	}
}

// CombinedMult returns u1·G + u2·Q, walking the comb for the Q term
// and skipping the base term when u1 ≡ 0 — the steady-state ECDSA
// verification against a known signer. A table without a comb runs
// Curve.CombinedMult.
//
//detlint:allow hotpath scalar reduction mod N at the public big.Int boundary, allocation-free for a reduced scalar, before the limb-pure comb walk
func (t *MultTable) CombinedMult(u1, u2 *big.Int) Point {
	c := t.c
	if t.fpTab == nil {
		return c.CombinedMult(t.q, u1, u2)
	}
	var s fpScratch
	var acc fpJac
	if k := c.modN(u2); k.Sign() != 0 {
		var kl [4]uint64
		scalarLimbs(k, &kl)
		t.fpMult(&acc, &kl, &s)
	} else {
		c.fpSetInfinity(&acc)
	}
	if k := c.modN(u1); k.Sign() != 0 {
		c.combAccumulate(&acc, k, &s)
	}
	return c.fpToPoint(&acc)
}
