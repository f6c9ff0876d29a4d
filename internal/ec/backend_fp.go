package ec

import (
	"encoding/binary"
	"math/big"

	"repro/internal/ec/fp"
)

// Limb-based point arithmetic — the default backend of the EC hot
// path. Points are held as Jacobian triples of Montgomery-form
// fp.Elements and every group operation works in place with
// caller-provided scratch, so the wNAF/comb loops of scalar
// multiplication perform O(1) heap allocations regardless of scalar
// size. Conversion to big.Int affine coordinates happens only at the
// public API boundary.
//
// The math/big implementation in jacobian.go is retained verbatim as a
// differential oracle and as a build-selectable fallback
// (-tags ec_purebig); see backend_select.go.

// fpJac is a Jacobian point (X : Y : Z) over fp elements, x = X/Z²,
// y = Y/Z³. Z = 0 encodes the point at infinity.
type fpJac struct {
	x, y, z fp.Element
}

// fpAffine is an affine point over fp elements, used for precomputed
// tables (mixed addition). No table holds the point at infinity: every
// entry is c·P for a finite P of prime order n and a coefficient c
// that is nonzero mod n — j·32^w for the fixed-base comb, and
// ±1 ± 2^d ± 2^{2d} + 2^{3d}, nonzero and below n, for MultTable's
// signed comb. Sums met while walking a table can still double or
// cancel; fpAddAffine handles both.
type fpAffine struct {
	x, y fp.Element
}

// fpScratch is the caller-provided temporary store for the in-place
// group operations. One scratch serves an entire scalar-multiplication
// loop; it carries no state between calls.
type fpScratch struct {
	t [8]fp.Element
}

func (c *Curve) fpSetInfinity(p *fpJac) {
	p.x = c.fpF.One()
	p.y = c.fpF.One()
	p.z = fp.Element{}
}

func (c *Curve) fpIsInfinity(p *fpJac) bool { return c.fpF.IsZero(&p.z) }

// fpFromAffinePoint loads a finite affine point into Jacobian form
// (Z = 1).
func (c *Curve) fpFromAffinePoint(out *fpJac, p Point) {
	c.fpF.FromBig(&out.x, p.X)
	c.fpF.FromBig(&out.y, p.Y)
	out.z = c.fpF.One()
}

// fpToPoint converts back to big.Int affine coordinates — the single
// inversion of a scalar-multiplication call.
func (c *Curve) fpToPoint(p *fpJac) Point {
	f := c.fpF
	if c.fpIsInfinity(p) {
		return Point{}
	}
	var zinv, zinv2, x, y fp.Element
	f.Inv(&zinv, &p.z)
	f.Sqr(&zinv2, &zinv)
	f.Mul(&x, &p.x, &zinv2)
	f.Mul(&y, &zinv2, &zinv)
	f.Mul(&y, &p.y, &y)
	return Point{X: f.ToBig(&x), Y: f.ToBig(&y)}
}

// rhsSqrtFP returns a square root of x³ + ax + b mod p for a reduced
// x, on limb elements: the right-hand side in Horner form
// (x² + a)·x + b, then fp.Field.Sqrt's single exponentiation. It
// returns false when the right-hand side is a non-residue, i.e. x is
// not the abscissa of a curve point. The prime must be ≡ 3 (mod 4).
func (c *Curve) rhsSqrtFP(x *big.Int) (*big.Int, bool) {
	f := c.fpF
	var fx, rhs fp.Element
	f.FromBig(&fx, x)
	f.Sqr(&rhs, &fx)
	f.Add(&rhs, &rhs, &c.fpA)
	f.Mul(&rhs, &rhs, &fx)
	f.Add(&rhs, &rhs, &c.fpB)
	if !f.Sqrt(&rhs, &rhs) {
		return nil, false
	}
	return f.ToBig(&rhs), true
}

// isOnCurveFP reports whether y² = (x² + a)·x + b for a point whose
// coordinates lie in [0, p), on limb elements in Montgomery form: the
// Horner form of rhsSqrtFP, compared with y² limb for limb.
func (c *Curve) isOnCurveFP(p Point) bool {
	f := c.fpF
	var x, y, rhs fp.Element
	f.FromBig(&x, p.X)
	f.FromBig(&y, p.Y)
	f.Sqr(&y, &y)
	f.Sqr(&rhs, &x)
	f.Add(&rhs, &rhs, &c.fpA)
	f.Mul(&rhs, &rhs, &x)
	f.Add(&rhs, &rhs, &c.fpB)
	return f.Equal(&y, &rhs)
}

// fpDouble sets p = 2p in place: dbl-2001-b evaluated over Y′ = 2Y,
// 4M + 4S and 10 field additions where the textbook order spends
// 3M + 5S and 16. It takes the a = −3 shortcut α = 3(X − δ)(X + δ)
// unconditionally; newCurve admits no other curve. Over Y′, Y′² = 4γ
// gives 4β = X·Y′² with no doublings, Z3 = 2YZ = Y′·Z needs no
// (Y + Z)² − γ − δ, and 8γ² = Y′⁴/2 is one Half. The output limbs
// equal dbl-2001-b's:
//
//	δ = Z², γ = Y², β = X·γ, α = 3(X − δ)(X + δ)
//	X3 = α² − 8β, Z3 = 2Y·Z, Y3 = α(4β − X3) − 8γ²
func (c *Curve) fpDouble(p *fpJac, s *fpScratch) {
	f := c.fpF
	if f.IsZero(&p.z) || f.IsZero(&p.y) {
		c.fpSetInfinity(p)
		return
	}
	delta, alpha, yy, beta4, tmp := &s.t[0], &s.t[1], &s.t[2], &s.t[3], &s.t[4]

	f.Sqr(delta, &p.z)
	f.Sub(alpha, &p.x, delta)
	f.Add(tmp, &p.x, delta)
	f.Mul(alpha, alpha, tmp)
	f.Dbl(tmp, alpha)
	f.Add(alpha, tmp, alpha) // α

	f.Dbl(&p.y, &p.y)       // Y′ = 2Y
	f.Mul(&p.z, &p.z, &p.y) // Z3 = Y′·Z
	f.Sqr(yy, &p.y)         // Y′² = 4γ
	f.Mul(beta4, &p.x, yy)  // 4β

	f.Sqr(&p.x, alpha)
	f.Sub(&p.x, &p.x, beta4)
	f.Sub(&p.x, &p.x, beta4) // X3 = α² − 8β

	f.Sub(tmp, beta4, &p.x)
	f.Mul(&p.y, alpha, tmp)
	f.Sqr(yy, yy)
	f.Half(yy, yy)        // Y′⁴/2 = 8γ²
	f.Sub(&p.y, &p.y, yy) // Y3 = α(4β − X3) − 8γ²
}

// fpAddJac sets p = p + q (or p − q when neg) in place: add-1998-cmo-2,
// 12M + 4S and 7 field additions. q must not alias p. When the
// abscissas agree (H = 0) the sum is the point at infinity (p = −q′)
// or a doubling (p = q′), q′ being q or −q.
//
//	U1 = X1·Z2², U2 = X2·Z1², S1 = Y1·Z2³, S2 = ±Y2·Z1³
//	H = U2 − U1, R = S2 − S1, V = U1·H²
//	X3 = R² − H³ − 2V, Y3 = R(V − X3) − S1·H³, Z3 = Z1·Z2·H
//
// When neg, R is held negated — S2 + S1 for Y2·Z1³ — which leaves R²
// and the test R = 0 unchanged and turns R(V − X3) into R(X3 − V), so
// −q costs no negation.
func (c *Curve) fpAddJac(p *fpJac, q *fpJac, neg bool, s *fpScratch) {
	f := c.fpF
	if c.fpIsInfinity(q) {
		return
	}
	if c.fpIsInfinity(p) {
		*p = *q
		if neg {
			f.Neg(&p.y, &p.y)
		}
		return
	}
	z1z1, z2z2, u1, h := &s.t[0], &s.t[1], &s.t[2], &s.t[3]
	s1, r, hh, hhh := &s.t[4], &s.t[5], &s.t[6], &s.t[7]

	f.Sqr(z1z1, &p.z)
	f.Sqr(z2z2, &q.z)
	f.Mul(u1, &p.x, z2z2)
	f.Mul(h, &q.x, z1z1)
	f.Mul(s1, &q.z, z2z2)
	f.Mul(s1, &p.y, s1)
	f.Mul(r, &p.z, z1z1)
	f.Mul(r, &q.y, r)
	f.Sub(h, h, u1) // H
	if neg {
		f.Add(r, r, s1) // −R
	} else {
		f.Sub(r, r, s1) // R
	}
	if f.IsZero(h) {
		if !f.IsZero(r) {
			c.fpSetInfinity(p) // p = −q′ (group inverse)
			return
		}
		c.fpDouble(p, s) // p = q′ as group elements
		return
	}

	f.Sqr(hh, h)
	f.Mul(hhh, h, hh)
	f.Mul(u1, u1, hh) // V

	f.Mul(&p.z, &p.z, &q.z)
	f.Mul(&p.z, &p.z, h) // Z3

	f.Sqr(&p.x, r)
	f.Sub(&p.x, &p.x, hhh)
	f.Dbl(h, u1)
	f.Sub(&p.x, &p.x, h) // X3

	if neg {
		f.Sub(u1, &p.x, u1)
	} else {
		f.Sub(u1, u1, &p.x)
	}
	f.Mul(u1, u1, r)
	f.Mul(s1, s1, hhh)
	f.Sub(&p.y, u1, s1) // Y3
}

// fpAddAffine sets p = p + q (or p − q when neg) for an affine q — the
// mixed addition madd-2004-hmv used against precomputed tables, 8M + 3S
// and 7 field additions. Its cases and its negated R for −q are
// fpAddJac's with Z2 = 1:
//
//	U2 = X2·Z1², S2 = ±Y2·Z1³, H = U2 − X1, R = S2 − Y1, V = X1·H²
//	X3 = R² − H³ − 2V, Y3 = R(V − X3) − Y1·H³, Z3 = Z1·H
func (c *Curve) fpAddAffine(p *fpJac, q *fpAffine, neg bool, s *fpScratch) {
	f := c.fpF
	if c.fpIsInfinity(p) {
		p.x = q.x
		p.y = q.y
		if neg {
			f.Neg(&p.y, &p.y)
		}
		p.z = c.fpF.One()
		return
	}
	h, r, hh, hhh := &s.t[0], &s.t[1], &s.t[2], &s.t[3]

	f.Sqr(hh, &p.z)
	f.Mul(r, hh, &p.z)
	f.Mul(h, hh, &q.x)
	f.Mul(r, r, &q.y)
	f.Sub(h, h, &p.x) // H
	if neg {
		f.Add(r, r, &p.y) // −R
	} else {
		f.Sub(r, r, &p.y) // R
	}
	if f.IsZero(h) {
		if !f.IsZero(r) {
			c.fpSetInfinity(p)
			return
		}
		c.fpDouble(p, s)
		return
	}

	f.Mul(&p.z, &p.z, h) // Z3
	f.Sqr(hh, h)
	f.Mul(hhh, hh, h)
	f.Mul(hh, hh, &p.x) // V

	f.Sqr(&p.x, r)
	f.Sub(&p.x, &p.x, hhh)
	f.Dbl(h, hh)
	f.Sub(&p.x, &p.x, h) // X3

	if neg {
		f.Sub(hh, &p.x, hh)
	} else {
		f.Sub(hh, hh, &p.x)
	}
	f.Mul(hh, hh, r)
	f.Mul(hhh, hhh, &p.y)
	f.Sub(&p.y, hh, hhh) // Y3
}

// fpBatchToAffine converts Jacobian points to fpAffine through one
// shared inversion (fp.Field.BatchInv, Montgomery's trick). Used only
// for table builds; every input must be finite.
func (c *Curve) fpBatchToAffine(pts []fpJac, out []fpAffine) {
	f := c.fpF
	n := len(pts)
	if n == 0 {
		return
	}
	zinv := make([]fp.Element, n)
	for i := range pts {
		zinv[i] = pts[i].z
	}
	f.BatchInv(zinv, zinv)
	var zinv2 fp.Element
	for i := range pts {
		f.Sqr(&zinv2, &zinv[i])
		f.Mul(&out[i].x, &pts[i].x, &zinv2)
		f.Mul(&zinv2, &zinv2, &zinv[i])
		f.Mul(&out[i].y, &pts[i].y, &zinv2)
	}
}

// --- scalar recoding (allocation-free) ---

// scalarLimbs decomposes a reduced scalar (< 2^256) into four
// little-endian limbs without heap allocation.
func scalarLimbs(k *big.Int, limbs *[4]uint64) {
	var kb [32]byte
	k.FillBytes(kb[:])
	limbs[0] = binary.BigEndian.Uint64(kb[24:32])
	limbs[1] = binary.BigEndian.Uint64(kb[16:24])
	limbs[2] = binary.BigEndian.Uint64(kb[8:16])
	limbs[3] = binary.BigEndian.Uint64(kb[0:8])
}

// limbBits returns the width bits of l starting at bit.
func limbBits(l *[4]uint64, bit int, width uint) uint64 {
	i, sh := bit>>6, uint(bit&63)
	v := l[i] >> sh
	if sh+width > 64 && i+1 < len(l) {
		v |= l[i+1] << (64 - sh)
	}
	return v & (1<<width - 1)
}

func limbsZero(l *[5]uint64) bool {
	return l[0]|l[1]|l[2]|l[3]|l[4] == 0
}

func limbsAdd(l *[5]uint64, v uint64) {
	for i := 0; i < 5 && v != 0; i++ {
		s := l[i] + v
		if s < l[i] {
			v = 1
		} else {
			v = 0
		}
		l[i] = s
	}
}

func limbsShr1(l *[5]uint64) {
	l[0] = l[0]>>1 | l[1]<<63
	l[1] = l[1]>>1 | l[2]<<63
	l[2] = l[2]>>1 | l[3]<<63
	l[3] = l[3]>>1 | l[4]<<63
	l[4] >>= 1
}

// wnafFixed computes the width-w NAF of a reduced scalar into a
// caller-provided buffer (least significant digit first), performing
// no heap allocation. Digits are odd in (−2^(w−1), 2^(w−1)) or zero.
// A fifth limb absorbs the recoding's carries.
func wnafFixed(k *big.Int, w uint, buf []int8) []int8 {
	var kl [4]uint64
	scalarLimbs(k, &kl)
	limbs := [5]uint64{kl[0], kl[1], kl[2], kl[3], 0}
	mod := uint64(1) << w
	half := mod >> 1
	digits := buf[:0]
	for !limbsZero(&limbs) {
		var d int8
		if limbs[0]&1 == 1 {
			r := limbs[0] & (mod - 1)
			if r >= half {
				d = int8(int64(r) - int64(mod))
				limbsAdd(&limbs, mod-r)
			} else {
				d = int8(r)
				limbs[0] -= r
			}
		}
		digits = append(digits, d)
		limbsShr1(&limbs)
	}
	return digits
}

// --- fixed-base comb table: signed 5-bit windows ---

// baseWindowBits is the fixed-base window width. A window's signed
// digit lies in [−15, 16], so a row holds the 16 multiples
// j·32^w·G, j = 1..16, and a negative digit negates an entry.
const baseWindowBits = 5

// maxBaseWindows bounds Curve.baseWindows for a 256-bit order.
const maxBaseWindows = (256 + baseWindowBits) / baseWindowBits

// combRow holds the 16 multiples j·32^w·G, j = 1..16, of one window.
type combRow [16]fpAffine

// combRows lazily builds the fixed-base comb: for each of the
// baseWindows signed windows w, the affine points j·32^w·G,
// j = 1..16. 52 rows on P-256 (52 KiB), built once per curve with a
// single batched inversion.
func (c *Curve) combRows() []combRow {
	c.combOnce.Do(func() {
		const width = len(combRow{})
		windows := c.baseWindows
		jacs := make([]fpJac, windows*width)
		var base fpJac
		var s fpScratch
		c.fpFromAffinePoint(&base, c.Generator())
		for w := 0; w < windows; w++ {
			row := jacs[w*width : (w+1)*width]
			row[0] = base
			row[1] = base
			c.fpDouble(&row[1], &s)
			for j := 2; j < width; j++ {
				row[j] = row[j-1]
				c.fpAddJac(&row[j], &base, false, &s)
			}
			base = row[width-1] // 16·32^w·G
			c.fpDouble(&base, &s)
		}
		flat := make([]fpAffine, len(jacs))
		c.fpBatchToAffine(jacs, flat)
		rows := make([]combRow, windows)
		for w := range rows {
			copy(rows[w][:], flat[w*width:(w+1)*width])
		}
		c.comb = rows
	})
	return c.comb
}

// baseDigits recodes a reduced scalar k into signed 5-bit window
// digits, least significant first, writing into a caller buffer
// without heap allocation. Right to left, r = the window's bits plus
// the carry; r > 16 becomes the digit r − 32 with a carry of 1. Every
// digit lies in [−15, 16] and Σ digit_w·32^w = k: k < 2^bitlen(n) and
// 5·windows > bitlen(n) leave the top window's bits at most 15, so it
// never carries out.
func baseDigits(k *[4]uint64, windows int, buf []int8) []int8 {
	const half = 1 << (baseWindowBits - 1)
	digits := buf[:windows]
	carry := 0
	for w := range digits {
		r := int(limbBits(k, baseWindowBits*w, baseWindowBits)) + carry
		carry = 0
		if r > half {
			r -= 2 * half
			carry = 1
		}
		digits[w] = int8(r)
	}
	return digits
}

// combAccumulate adds k·G into acc via the comb table: one mixed
// addition per nonzero window digit, at most baseWindows of them, and
// no doublings. k must be reduced mod N.
func (c *Curve) combAccumulate(acc *fpJac, k *big.Int, s *fpScratch) {
	rows := c.combRows()
	var kl [4]uint64
	scalarLimbs(k, &kl)
	var buf [maxBaseWindows]int8
	for w, d := range baseDigits(&kl, len(rows), buf[:]) {
		if d > 0 {
			c.fpAddAffine(acc, &rows[w][d-1], false, s)
		} else if d < 0 {
			c.fpAddAffine(acc, &rows[w][-d-1], true, s)
		}
	}
}

// --- scalar multiplication (fp backend) ---

// fpOddMultiples fills table[:count] with [P, 3P, ..., (2·count − 1)P]
// in Jacobian form for the wNAF loop, count in [1, 8]. p must be
// finite.
func (c *Curve) fpOddMultiples(p Point, table *[8]fpJac, count int, s *fpScratch) {
	c.fpFromAffinePoint(&table[0], p)
	if count == 1 {
		return
	}
	twoP := table[0]
	c.fpDouble(&twoP, s)
	for i := 1; i < count; i++ {
		table[i] = table[i-1]
		c.fpAddJac(&table[i], &twoP, false, s)
	}
}

// wnafAccumulate runs the shared double-and-add loop over a wNAF digit
// string, adding table entries (Jacobian form) into acc.
func (c *Curve) wnafAccumulate(acc *fpJac, table *[8]fpJac, digits []int8, s *fpScratch) {
	for i := len(digits) - 1; i >= 0; i-- {
		c.fpDouble(acc, s)
		d := digits[i]
		if d > 0 {
			c.fpAddJac(acc, &table[(d-1)/2], false, s)
		} else if d < 0 {
			c.fpAddJac(acc, &table[(-d-1)/2], true, s)
		}
	}
}

// wnafAdd adds the odd multiple of wNAF digit d from table (Jacobian
// form) into acc; a zero digit adds nothing.
func (c *Curve) wnafAdd(acc *fpJac, table *[8]fpJac, d int8, s *fpScratch) {
	if d > 0 {
		c.fpAddJac(acc, &table[(d-1)/2], false, s)
	} else if d < 0 {
		c.fpAddJac(acc, &table[(-d-1)/2], true, s)
	}
}

// scalarMultFP evaluates k·P for a finite P and reduced nonzero k with
// O(1) heap allocations (the output Point and a big.Int scratch or
// two at the boundary).
func (c *Curve) scalarMultFP(p Point, kr *big.Int) Point {
	var s fpScratch
	var table [8]fpJac
	c.fpOddMultiples(p, &table, len(table), &s)
	var dbuf [264]int8
	digits := wnafFixed(kr, wnafWindow, dbuf[:])
	var acc fpJac
	c.fpSetInfinity(&acc)
	c.wnafAccumulate(&acc, &table, digits, &s)
	return c.fpToPoint(&acc)
}

// scalarBaseMultFP evaluates k·G through the comb table: ~windows
// mixed additions, zero doublings.
func (c *Curve) scalarBaseMultFP(kr *big.Int) Point {
	var s fpScratch
	var acc fpJac
	c.fpSetInfinity(&acc)
	c.combAccumulate(&acc, kr, &s)
	return c.fpToPoint(&acc)
}

// scalarMultNaiveFP is the schoolbook double-and-add ladder on limb
// elements — the ablation baseline, sharing ScalarMult's field backend
// so the comparison isolates the wNAF recoding.
func (c *Curve) scalarMultNaiveFP(p Point, kr *big.Int) Point {
	var s fpScratch
	var acc, add fpJac
	c.fpSetInfinity(&acc)
	c.fpFromAffinePoint(&add, p)
	for i := kr.BitLen() - 1; i >= 0; i-- {
		c.fpDouble(&acc, &s)
		if kr.Bit(i) == 1 {
			c.fpAddJac(&acc, &add, false, &s)
		}
	}
	return c.fpToPoint(&acc)
}

// straussTerm is one point's share of combinedMultNFP's doubling
// chain: the n wNAF digits of its scalar, least significant first, and
// the odd multiples of the point that those digits select.
type straussTerm struct {
	table  [8]fpJac
	digits [264]int8
	n      int
}

// combinedMultNFP evaluates u1·G + Σ k_i·P_i for a reduced u1 and
// reports whether Σ k_i·P_i is infinity: the wNAF digits of every k_i
// share one doubling chain over per-call Jacobian odd-multiple tables,
// each built up to its largest digit, the chain's result is tested for
// infinity, and u1·G is folded in through the comb before the one
// affine conversion. A zero scalar or an infinity point drops its term.
// Up to two terms live on the stack; more take one allocation.
func (c *Curve) combinedMultNFP(u1 *big.Int, points []Point, scalars []*big.Int) (Point, bool) {
	var s fpScratch
	var inline [2]straussTerm
	var terms []straussTerm
	if len(points) <= len(inline) {
		terms = inline[:len(points)]
	} else {
		terms = make([]straussTerm, len(points))
	}
	chain := 0
	for i, p := range points {
		k := c.modN(scalars[i])
		if k.Sign() == 0 || p.IsInfinity() {
			continue
		}
		t := &terms[i]
		t.n = len(wnafFixed(k, wnafWindow, t.digits[:]))
		top := int8(1)
		for _, d := range t.digits[:t.n] {
			top = max(top, d, -d)
		}
		c.fpOddMultiples(p, &t.table, int(top+1)/2, &s)
		chain = max(chain, t.n)
	}
	var acc fpJac
	c.fpSetInfinity(&acc)
	for i := chain - 1; i >= 0; i-- {
		c.fpDouble(&acc, &s)
		for j := range terms {
			if t := &terms[j]; i < t.n {
				c.wnafAdd(&acc, &t.table, t.digits[i], &s)
			}
		}
	}
	sumZero := c.fpIsInfinity(&acc)
	if u1.Sign() != 0 {
		c.combAccumulate(&acc, u1, &s)
	}
	return c.fpToPoint(&acc), sumZero
}

// addFP is the group addition at the public API boundary.
func (c *Curve) addFP(p, q Point) Point {
	if p.IsInfinity() {
		return q.Clone()
	}
	if q.IsInfinity() {
		return p.Clone()
	}
	var s fpScratch
	var jp, jq fpJac
	c.fpFromAffinePoint(&jp, p)
	c.fpFromAffinePoint(&jq, q)
	c.fpAddJac(&jp, &jq, false, &s)
	return c.fpToPoint(&jp)
}

// doubleFP is the group doubling at the public API boundary.
func (c *Curve) doubleFP(p Point) Point {
	if p.IsInfinity() {
		return Point{}
	}
	var s fpScratch
	var jp fpJac
	c.fpFromAffinePoint(&jp, p)
	c.fpDouble(&jp, &s)
	return c.fpToPoint(&jp)
}
