// Package fp implements fixed-size prime-field arithmetic for the
// elliptic-curve hot path: 4×64-bit limb elements held in Montgomery
// form, with fully in-place, allocation-free operations.
//
// One Field instance is built per curve prime at package-ec init time.
// All bundled primes (P-256, P-224, P-192) are odd and fit in four
// 64-bit limbs, so one representation with R = 2^256 serves every
// curve; narrower primes simply carry zero top limbs. Montgomery
// reduction comes in two forms, picked once by New from the prime's
// limbs. P-256's limbs let each reduction row fold in with shifts and
// a single word multiplication, so its Mul and Sqr are each one body
// that forms the 512-bit product, folds it down that way and makes
// the final masked subtraction. Every other prime takes the generic
// reduction: interleaved with the product in Mul (CIOS, coarsely
// integrated operand scanning), after the square in Sqr (SOS,
// separated operand scanning). Both forms return the same limbs.
//
// Add, Sub, Dbl, Half, Neg and the final reduction of Mul and Sqr have
// no data-dependent branches: they select their result with a carry
// or borrow mask. That is for speed — a carry that random elements
// take half the time is a branch the CPU mispredicts half the time —
// not for side-channel hygiene. Inv is a variable-time binary GCD
// (Bernstein–Yang safegcd), like the point arithmetic above this
// package (wNAF digits, table walks, the infinity and doubling cases);
// only Sqrt still walks a public exponent. This is a
// research/simulation substrate, not a production implementation.
package fp

import (
	"errors"
	"math/big"
	"math/bits"
)

// Limbs is the fixed limb count of an Element. R = 2^(64·Limbs).
const Limbs = 4

// Element is a field element in Montgomery form: the element a is
// stored as a·R mod p, little-endian limbs. The zero value is the
// field's zero (0·R = 0).
type Element [Limbs]uint64

// Field holds the per-prime Montgomery constants. It is immutable
// after New and safe for concurrent use.
type Field struct {
	p    [Limbs]uint64 // the modulus, little-endian limbs
	n0   uint64        // −p⁻¹ mod 2^64 (Montgomery reduction factor)
	rr   Element       // R² mod p, the to-Montgomery conversion factor
	r3   Element       // R³ mod p: Inv's way back into Montgomery form
	one  Element       // R mod p, i.e. 1 in Montgomery form
	p62  signed62      // the modulus in signed 62-bit limbs, for Inv
	pi62 uint64        // p⁻¹ mod 2^62, for Inv
	sqrt [Limbs]uint64 // (p + 1)/4, the square-root exponent; zero unless p ≡ 3 (mod 4)
	pBig *big.Int      // the modulus as big.Int (boundary conversions)
	p256 bool          // p is the P-256 prime: Mul and Sqr take the P-256 fold
}

// p256Limbs is the NIST P-256 prime 2^256 − 2^224 + 2^192 + 2^96 − 1 in
// little-endian limbs. Its low limb is 2^64 − 1, so n0 = 1, and its
// low two limbs together are 2^96 − 1: that is what lets the P-256
// Mul and Sqr fold each reduction row in with shifts and a single
// multiplication.
var p256Limbs = [Limbs]uint64{0xffffffffffffffff, 0x00000000ffffffff, 0, 0xffffffff00000001}

// New builds the Montgomery context for an odd prime p < 2^256.
func New(p *big.Int) (*Field, error) {
	if p.Sign() <= 0 || p.Bit(0) == 0 || p.BitLen() > 64*Limbs {
		return nil, errors.New("fp: modulus must be an odd prime of at most 256 bits")
	}
	f := &Field{pBig: new(big.Int).Set(p)}
	fillLimbs(&f.p, p)

	// n0 = −p⁻¹ mod 2^64 by Newton iteration: each step doubles the
	// number of correct low bits, so five steps reach 64 from 5.
	inv := f.p[0] // correct to 3 bits for odd p
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.n0 = -inv
	f.pi62 = inv & mask62
	f.p62 = toSigned62((*Element)(&f.p))
	f.p256 = f.p == p256Limbs

	r := new(big.Int).Lsh(big.NewInt(1), 64*Limbs)
	rModP := new(big.Int).Mod(r, p)
	fillLimbs((*[Limbs]uint64)(&f.one), rModP)
	rr := new(big.Int).Mul(rModP, rModP)
	rr.Mod(rr, p)
	fillLimbs((*[Limbs]uint64)(&f.rr), rr)
	r3 := new(big.Int).Mul(rr, rModP)
	fillLimbs((*[Limbs]uint64)(&f.r3), r3.Mod(r3, p))

	if p.Bit(1) == 1 {
		e := new(big.Int).Add(p, big.NewInt(1))
		fillLimbs(&f.sqrt, e.Rsh(e, 2))
	}
	return f, nil
}

// fillLimbs writes v (< 2^256) into little-endian limbs.
func fillLimbs(dst *[Limbs]uint64, v *big.Int) {
	var buf [8 * Limbs]byte
	v.FillBytes(buf[:])
	for i := 0; i < Limbs; i++ {
		off := 8 * (Limbs - 1 - i)
		dst[i] = uint64(buf[off])<<56 | uint64(buf[off+1])<<48 |
			uint64(buf[off+2])<<40 | uint64(buf[off+3])<<32 |
			uint64(buf[off+4])<<24 | uint64(buf[off+5])<<16 |
			uint64(buf[off+6])<<8 | uint64(buf[off+7])
	}
}

// Modulus returns the prime as a fresh big.Int.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.pBig) }

// One returns 1 in Montgomery form.
func (f *Field) One() Element { return f.one }

// SetZero sets z to 0.
func (f *Field) SetZero(z *Element) { *z = Element{} }

// SetOne sets z to 1 (Montgomery form).
func (f *Field) SetOne(z *Element) { *z = f.one }

// IsZero reports whether x is 0. Zero's Montgomery form is zero and
// elements are kept fully reduced, so a limb test suffices.
func (f *Field) IsZero(x *Element) bool {
	return x[0]|x[1]|x[2]|x[3] == 0
}

// Equal reports whether x and y are the same field element. Reduced
// Montgomery representations are unique, so limb equality is exact.
func (f *Field) Equal(x, y *Element) bool {
	return x[0] == y[0] && x[1] == y[1] && x[2] == y[2] && x[3] == y[3]
}

// FromBig converts a big.Int (any sign, any magnitude) into Montgomery
// form, reducing modulo p. Allocates only via big.Int scratch; intended
// for the affine boundary, not the inner loop.
func (f *Field) FromBig(z *Element, v *big.Int) {
	var red *big.Int
	if v.Sign() < 0 || v.Cmp(f.pBig) >= 0 {
		red = new(big.Int).Mod(v, f.pBig)
	} else {
		red = v
	}
	var t Element
	fillLimbs((*[Limbs]uint64)(&t), red)
	f.Mul(z, &t, &f.rr) // t·R² · R⁻¹ = t·R
}

// ToBig converts x out of Montgomery form into a fresh big.Int.
func (f *Field) ToBig(x *Element) *big.Int {
	var t Element
	one := Element{1}
	f.Mul(&t, x, &one) // x·R · 1 · R⁻¹ = x
	var buf [8 * Limbs]byte
	for i := 0; i < Limbs; i++ {
		off := 8 * (Limbs - 1 - i)
		buf[off] = byte(t[i] >> 56)
		buf[off+1] = byte(t[i] >> 48)
		buf[off+2] = byte(t[i] >> 40)
		buf[off+3] = byte(t[i] >> 32)
		buf[off+4] = byte(t[i] >> 24)
		buf[off+5] = byte(t[i] >> 16)
		buf[off+6] = byte(t[i] >> 8)
		buf[off+7] = byte(t[i])
	}
	return new(big.Int).SetBytes(buf[:])
}

// reduce sets z to t − p when t ≥ p and to t otherwise, for the
// 257-bit t = hi·2^256 + (t3:t2:t1:t0) < 2p. The borrow of t − p,
// extended through hi, becomes a mask (all ones exactly when t < p)
// that picks t or t − p limb by limb: no branch on the carry. Add,
// Dbl and the P-256 Mul and Sqr spell the same steps out in their own
// bodies, so the hot kernels make no call.
func (f *Field) reduce(z *Element, hi, t0, t1, t2, t3 uint64) {
	r0, b := bits.Sub64(t0, f.p[0], 0)
	r1, b := bits.Sub64(t1, f.p[1], b)
	r2, b := bits.Sub64(t2, f.p[2], b)
	r3, b := bits.Sub64(t3, f.p[3], b)
	_, b = bits.Sub64(hi, 0, b)
	m := -b
	z[0] = r0 ^ (m & (r0 ^ t0))
	z[1] = r1 ^ (m & (r1 ^ t1))
	z[2] = r2 ^ (m & (r2 ^ t2))
	z[3] = r3 ^ (m & (r3 ^ t3))
}

// Add sets z = x + y mod p. Aliasing among z, x, y is allowed. The sum
// is below 2p and may carry past 2^256; reduce's masked subtraction
// follows inline.
func (f *Field) Add(z, x, y *Element) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, hi := bits.Add64(x[3], y[3], c)
	r0, b := bits.Sub64(t0, f.p[0], 0)
	r1, b := bits.Sub64(t1, f.p[1], b)
	r2, b := bits.Sub64(t2, f.p[2], b)
	r3, b := bits.Sub64(t3, f.p[3], b)
	_, b = bits.Sub64(hi, 0, b)
	m := -b
	z[0] = r0 ^ (m & (r0 ^ t0))
	z[1] = r1 ^ (m & (r1 ^ t1))
	z[2] = r2 ^ (m & (r2 ^ t2))
	z[3] = r3 ^ (m & (r3 ^ t3))
}

// Dbl sets z = 2x mod p: a one-bit shift, then Add's masked
// subtraction. Aliasing is allowed.
func (f *Field) Dbl(z, x *Element) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	t0, t1, t2, t3 := x0<<1, x1<<1|x0>>63, x2<<1|x1>>63, x3<<1|x2>>63
	r0, b := bits.Sub64(t0, f.p[0], 0)
	r1, b := bits.Sub64(t1, f.p[1], b)
	r2, b := bits.Sub64(t2, f.p[2], b)
	r3, b := bits.Sub64(t3, f.p[3], b)
	_, b = bits.Sub64(x3>>63, 0, b)
	m := -b
	z[0] = r0 ^ (m & (r0 ^ t0))
	z[1] = r1 ^ (m & (r1 ^ t1))
	z[2] = r2 ^ (m & (r2 ^ t2))
	z[3] = r3 ^ (m & (r3 ^ t3))
}

// Half sets z = x/2 mod p. An odd x has p added first, so the sum is
// even; the addition is masked by x's low bit rather than branched,
// and its carry becomes the top bit of the shift. (x + p)/2 < p, so
// the result needs no reduction. Aliasing is allowed.
func (f *Field) Half(z, x *Element) {
	m := -(x[0] & 1)
	t0, c := bits.Add64(x[0], f.p[0]&m, 0)
	t1, c := bits.Add64(x[1], f.p[1]&m, c)
	t2, c := bits.Add64(x[2], f.p[2]&m, c)
	t3, c := bits.Add64(x[3], f.p[3]&m, c)
	z[0] = t0>>1 | t1<<63
	z[1] = t1>>1 | t2<<63
	z[2] = t2>>1 | t3<<63
	z[3] = t3>>1 | c<<63
}

// Sub sets z = x − y mod p. Aliasing is allowed. The borrow of x − y
// becomes a mask that adds p back or adds zero.
func (f *Field) Sub(z, x, y *Element) {
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	m := -b
	var c uint64
	z[0], c = bits.Add64(t0, f.p[0]&m, 0)
	z[1], c = bits.Add64(t1, f.p[1]&m, c)
	z[2], c = bits.Add64(t2, f.p[2]&m, c)
	z[3], _ = bits.Add64(t3, f.p[3]&m, c)
}

// Neg sets z = −x mod p. Aliasing is allowed. p − x is masked to zero
// when x is zero, so −0 stays the canonical 0 rather than p.
func (f *Field) Neg(z, x *Element) {
	nz := x[0] | x[1] | x[2] | x[3]
	m := -((nz | -nz) >> 63) // all ones exactly when x ≠ 0
	r0, b := bits.Sub64(f.p[0], x[0], 0)
	r1, b := bits.Sub64(f.p[1], x[1], b)
	r2, b := bits.Sub64(f.p[2], x[2], b)
	r3, _ := bits.Sub64(f.p[3], x[3], b)
	z[0], z[1], z[2], z[3] = r0&m, r1&m, r2&m, r3&m
}

// madd1 returns the 128-bit a·b + c as (hi, lo).
func madd1(a, b, c uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry // hi ≤ 2^64−2, no overflow
	return hi, lo
}

// madd2 returns the 128-bit a·b + c + d as (hi, lo).
func madd2(a, b, c, d uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	var carry uint64
	c, carry = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return hi, lo
}

// Mul sets z = x·y·R⁻¹ mod p — Montgomery multiplication. With both
// inputs in Montgomery form the result is the Montgomery form of the
// product. Aliasing among z, x, y is allowed. No heap allocation.
//
// On P-256 the whole operation is this one body, with no call: the
// 512-bit product, one row per limb of y, then the P-256 fold (Gueron
// and Krasnov, "Fast prime field elliptic-curve cryptography with
// 256-bit primes", J. Cryptogr. Eng. 2015), then the final masked
// subtraction. Each product row forms its four 128-bit word products
// first, then adds their low words and their high words (one word
// higher) on two separate carry chains: two long chains run faster
// than short multiply-add chains. Every other prime takes mulCIOS.
func (f *Field) Mul(z, x, y *Element) {
	if !f.p256 {
		f.mulCIOS(z, x, y)
		return
	}
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var t0, t1, t2, t3, t4, t5, t6, t7, c uint64

	yi := y[0]
	h0, l0 := bits.Mul64(x0, yi)
	h1, l1 := bits.Mul64(x1, yi)
	h2, l2 := bits.Mul64(x2, yi)
	h3, l3 := bits.Mul64(x3, yi)
	t0 = l0
	t1, c = bits.Add64(h0, l1, 0)
	t2, c = bits.Add64(h1, l2, c)
	t3, c = bits.Add64(h2, l3, c)
	t4 = h3 + c // a high word is at most 2^64 − 2, the carry absorbs

	// Rows 1..3. The top word of each row cannot wrap: after row i the
	// sum is x·(y_i..y_0) < 2^(64(i+5)), exactly what t0..t(i+4) hold.
	yi = y[1]
	h0, l0 = bits.Mul64(x0, yi)
	h1, l1 = bits.Mul64(x1, yi)
	h2, l2 = bits.Mul64(x2, yi)
	h3, l3 = bits.Mul64(x3, yi)
	t1, c = bits.Add64(t1, l0, 0)
	t2, c = bits.Add64(t2, l1, c)
	t3, c = bits.Add64(t3, l2, c)
	t4, c = bits.Add64(t4, l3, c)
	t5 = c
	t2, c = bits.Add64(t2, h0, 0)
	t3, c = bits.Add64(t3, h1, c)
	t4, c = bits.Add64(t4, h2, c)
	t5 += h3 + c

	yi = y[2]
	h0, l0 = bits.Mul64(x0, yi)
	h1, l1 = bits.Mul64(x1, yi)
	h2, l2 = bits.Mul64(x2, yi)
	h3, l3 = bits.Mul64(x3, yi)
	t2, c = bits.Add64(t2, l0, 0)
	t3, c = bits.Add64(t3, l1, c)
	t4, c = bits.Add64(t4, l2, c)
	t5, c = bits.Add64(t5, l3, c)
	t6 = c
	t3, c = bits.Add64(t3, h0, 0)
	t4, c = bits.Add64(t4, h1, c)
	t5, c = bits.Add64(t5, h2, c)
	t6 += h3 + c

	yi = y[3]
	h0, l0 = bits.Mul64(x0, yi)
	h1, l1 = bits.Mul64(x1, yi)
	h2, l2 = bits.Mul64(x2, yi)
	h3, l3 = bits.Mul64(x3, yi)
	t3, c = bits.Add64(t3, l0, 0)
	t4, c = bits.Add64(t4, l1, c)
	t5, c = bits.Add64(t5, l2, c)
	t6, c = bits.Add64(t6, l3, c)
	t7 = c
	t4, c = bits.Add64(t4, h0, 0)
	t5, c = bits.Add64(t5, h1, c)
	t6, c = bits.Add64(t6, h2, c)
	t7 += h3 + c

	// The P-256 fold; see Sqr for why each row is exact.
	const p1, p3 = 0x00000000ffffffff, 0xffffffff00000001
	var hi uint64
	t1, c = bits.Add64(t1, t0<<32, 0)
	t2, c = bits.Add64(t2, t0>>32, c)
	h0, l0 = bits.Mul64(t0, p3)
	t3, c = bits.Add64(t3, l0, c)
	t4, hi = bits.Add64(t4, h0, c)

	t2, c = bits.Add64(t2, t1<<32, 0)
	t3, c = bits.Add64(t3, t1>>32, c)
	h0, l0 = bits.Mul64(t1, p3)
	t4, c = bits.Add64(t4, l0, c)
	t5, hi = bits.Add64(t5, h0+hi, c)

	t3, c = bits.Add64(t3, t2<<32, 0)
	t4, c = bits.Add64(t4, t2>>32, c)
	h0, l0 = bits.Mul64(t2, p3)
	t5, c = bits.Add64(t5, l0, c)
	t6, hi = bits.Add64(t6, h0+hi, c)

	t4, c = bits.Add64(t4, t3<<32, 0)
	t5, c = bits.Add64(t5, t3>>32, c)
	h0, l0 = bits.Mul64(t3, p3)
	t6, c = bits.Add64(t6, l0, c)
	t7, hi = bits.Add64(t7, h0+hi, c)

	// hi·2^256 + t7..t4 < 2p: one masked subtraction of p.
	r0, b := bits.Sub64(t4, ^uint64(0), 0)
	r1, b := bits.Sub64(t5, p1, b)
	r2, b := bits.Sub64(t6, 0, b)
	r3, b := bits.Sub64(t7, p3, b)
	_, b = bits.Sub64(hi, 0, b)
	m := -b
	z[0] = r0 ^ (m & (r0 ^ t4))
	z[1] = r1 ^ (m & (r1 ^ t5))
	z[2] = r2 ^ (m & (r2 ^ t6))
	z[3] = r3 ^ (m & (r3 ^ t7))
}

// mulCIOS is Mul for every prime but P-256: the textbook CIOS loop
// (Koç, Acar, Kaliski 1996), unrolled over the four limbs of y with
// the running state, the modulus limbs and n0 held in locals.
func (f *Field) mulCIOS(z, x, y *Element) {
	p0, p1, p2, p3, n0 := f.p[0], f.p[1], f.p[2], f.p[3], f.n0
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	// t0..t3 is the running accumulator and t4/t5 the two overflow
	// words of the (Limbs+2)-word CIOS state. The modulus' top limb may
	// exceed 2^63, so the no-carry shortcut is unavailable and both
	// overflow words are tracked. Between rows the state is below 2p,
	// so t4 ∈ {0, 1} and t5 only holds the carry of the
	// multiplication row.
	var t0, t1, t2, t3, t4, t5, c, m uint64

	// Row 0: the accumulator is zero, so the product row is plain.
	yi := y[0]
	c, t0 = bits.Mul64(x0, yi)
	c, t1 = madd1(x1, yi, c)
	c, t2 = madd1(x2, yi, c)
	c, t3 = madd1(x3, yi, c)
	t4 = c
	m = t0 * n0
	c, _ = madd1(m, p0, t0) // low word cancels to 0 by choice of m
	c, t0 = madd2(m, p1, t1, c)
	c, t1 = madd2(m, p2, t2, c)
	c, t2 = madd2(m, p3, t3, c)
	t3, t4 = bits.Add64(t4, c, 0)

	// Row 1.
	yi = y[1]
	c, t0 = madd1(x0, yi, t0)
	c, t1 = madd2(x1, yi, t1, c)
	c, t2 = madd2(x2, yi, t2, c)
	c, t3 = madd2(x3, yi, t3, c)
	t4, t5 = bits.Add64(t4, c, 0)
	m = t0 * n0
	c, _ = madd1(m, p0, t0)
	c, t0 = madd2(m, p1, t1, c)
	c, t1 = madd2(m, p2, t2, c)
	c, t2 = madd2(m, p3, t3, c)
	t3, c = bits.Add64(t4, c, 0)
	t4 = t5 + c

	// Row 2.
	yi = y[2]
	c, t0 = madd1(x0, yi, t0)
	c, t1 = madd2(x1, yi, t1, c)
	c, t2 = madd2(x2, yi, t2, c)
	c, t3 = madd2(x3, yi, t3, c)
	t4, t5 = bits.Add64(t4, c, 0)
	m = t0 * n0
	c, _ = madd1(m, p0, t0)
	c, t0 = madd2(m, p1, t1, c)
	c, t1 = madd2(m, p2, t2, c)
	c, t2 = madd2(m, p3, t3, c)
	t3, c = bits.Add64(t4, c, 0)
	t4 = t5 + c

	// Row 3.
	yi = y[3]
	c, t0 = madd1(x0, yi, t0)
	c, t1 = madd2(x1, yi, t1, c)
	c, t2 = madd2(x2, yi, t2, c)
	c, t3 = madd2(x3, yi, t3, c)
	t4, t5 = bits.Add64(t4, c, 0)
	m = t0 * n0
	c, _ = madd1(m, p0, t0)
	c, t0 = madd2(m, p1, t1, c)
	c, t1 = madd2(m, p2, t2, c)
	c, t2 = madd2(m, p3, t3, c)
	t3, c = bits.Add64(t4, c, 0)
	t4 = t5 + c

	// The result (with overflow bit t4) is below 2p; one masked
	// subtraction brings it below p.
	f.reduce(z, t4, t0, t1, t2, t3)
}

// Sqr sets z = x²·R⁻¹ mod p — the dedicated Montgomery squaring.
// Aliasing z with x is allowed. No heap allocation. Squarings dominate
// the doubling chains of every scalar multiplication, so this is the
// single hottest word loop in the package.
//
// On P-256 the whole operation is this one body, with no call: the
// 512-bit square as in sqr512, the P-256 fold, then the final masked
// subtraction. Every other prime takes sqrSOS.
//
// The fold is the Montgomery reduction of the 512-bit t = t7..t0 <
// p·2^256 for the P-256 prime, with the same result as redSOS but one
// multiplication a row. With n0 = 1 the row factor is m = t_i itself,
// and since p = (2^96 − 1) + p3·2^192, adding m·p at word i cancels
// t_i exactly (t_i − m = 0, no borrow) and leaves m·2^96 — m<<32 at
// word i+1 and m>>32 at word i+2 — plus the 128-bit m·p3 at words
// i+3..i+4, all on one carry chain. The carry-out of row i is pending
// at word i+5, where row i+1 ends: it rides on the high word of m·p3,
// which is at most 2^64 − 2 and so cannot wrap. The folded value
// (t + m·p)/2^256 is below 2p.
func (f *Field) Sqr(z, x *Element) {
	if !f.p256 {
		f.sqrSOS(z, x)
		return
	}
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]

	p01h, p01l := bits.Mul64(x0, x1)
	p02h, p02l := bits.Mul64(x0, x2)
	p03h, p03l := bits.Mul64(x0, x3)
	p12h, p12l := bits.Mul64(x1, x2)
	p13h, p13l := bits.Mul64(x1, x3)
	p23h, p23l := bits.Mul64(x2, x3)

	var t0, t1, t2, t3, t4, t5, t6, t7, c uint64
	t1 = p01l
	t2, c = bits.Add64(p01h, p02l, 0)
	t3, c = bits.Add64(p02h, p03l, c)
	t4 = p03h + c
	t3, c = bits.Add64(t3, p12l, 0)
	t4, c = bits.Add64(t4, p12h, c)
	t5 = c
	t4, c = bits.Add64(t4, p13l, 0)
	t5, c = bits.Add64(t5, p13h, c)
	t6 = c
	t5, c = bits.Add64(t5, p23l, 0)
	t6, c = bits.Add64(t6, p23h, c)
	t7 = c

	t7 = t7<<1 | t6>>63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 <<= 1

	d0h, d0l := bits.Mul64(x0, x0)
	d1h, d1l := bits.Mul64(x1, x1)
	d2h, d2l := bits.Mul64(x2, x2)
	d3h, d3l := bits.Mul64(x3, x3)
	t0 = d0l
	t1, c = bits.Add64(t1, d0h, 0)
	t2, c = bits.Add64(t2, d1l, c)
	t3, c = bits.Add64(t3, d1h, c)
	t4, c = bits.Add64(t4, d2l, c)
	t5, c = bits.Add64(t5, d2h, c)
	t6, c = bits.Add64(t6, d3l, c)
	t7 += d3h + c

	const p1, p3 = 0x00000000ffffffff, 0xffffffff00000001
	var hi, h, l uint64
	t1, c = bits.Add64(t1, t0<<32, 0)
	t2, c = bits.Add64(t2, t0>>32, c)
	h, l = bits.Mul64(t0, p3)
	t3, c = bits.Add64(t3, l, c)
	t4, hi = bits.Add64(t4, h, c)

	t2, c = bits.Add64(t2, t1<<32, 0)
	t3, c = bits.Add64(t3, t1>>32, c)
	h, l = bits.Mul64(t1, p3)
	t4, c = bits.Add64(t4, l, c)
	t5, hi = bits.Add64(t5, h+hi, c)

	t3, c = bits.Add64(t3, t2<<32, 0)
	t4, c = bits.Add64(t4, t2>>32, c)
	h, l = bits.Mul64(t2, p3)
	t5, c = bits.Add64(t5, l, c)
	t6, hi = bits.Add64(t6, h+hi, c)

	t4, c = bits.Add64(t4, t3<<32, 0)
	t5, c = bits.Add64(t5, t3>>32, c)
	h, l = bits.Mul64(t3, p3)
	t6, c = bits.Add64(t6, l, c)
	t7, hi = bits.Add64(t7, h+hi, c)

	r0, b := bits.Sub64(t4, ^uint64(0), 0)
	r1, b := bits.Sub64(t5, p1, b)
	r2, b := bits.Sub64(t6, 0, b)
	r3, b := bits.Sub64(t7, p3, b)
	_, b = bits.Sub64(hi, 0, b)
	m := -b
	z[0] = r0 ^ (m & (r0 ^ t4))
	z[1] = r1 ^ (m & (r1 ^ t5))
	z[2] = r2 ^ (m & (r2 ^ t6))
	z[3] = r3 ^ (m & (r3 ^ t7))
}

// sqrSOS is Sqr for every prime but P-256: the 512-bit square from
// sqr512, the generic SOS rows of redSOS, then reduce.
func (f *Field) sqrSOS(z, x *Element) {
	t0, t1, t2, t3, t4, t5, t6, t7 := sqr512(x)
	hi, r0, r1, r2, r3 := f.redSOS(t0, t1, t2, t3, t4, t5, t6, t7)
	f.reduce(z, hi, r0, r1, r2, r3)
}

// sqr512 returns the full 512-bit square x² as little-endian words
// t0..t7. The six off-diagonal products x_i·x_j (i < j) are computed
// once and doubled by a single carry-chain shift, then the four
// diagonal squares x_i² are added in: ten word multiplications where
// a general product spends sixteen.
func sqr512(x *Element) (t0, t1, t2, t3, t4, t5, t6, t7 uint64) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]

	// Off-diagonal half first: t = Σ_{i<j} x_i·x_j·2^(64(i+j)).
	p01h, p01l := bits.Mul64(x0, x1)
	p02h, p02l := bits.Mul64(x0, x2)
	p03h, p03l := bits.Mul64(x0, x3)
	p12h, p12l := bits.Mul64(x1, x2)
	p13h, p13l := bits.Mul64(x1, x3)
	p23h, p23l := bits.Mul64(x2, x3)

	var c uint64
	t1 = p01l
	t2, c = bits.Add64(p01h, p02l, 0)
	t3, c = bits.Add64(p02h, p03l, c)
	t4 = p03h + c // p03h ≤ 2^64−2, the carry absorbs

	t3, c = bits.Add64(t3, p12l, 0)
	t4, c = bits.Add64(t4, p12h, c)
	t5 = c

	t4, c = bits.Add64(t4, p13l, 0)
	t5, c = bits.Add64(t5, p13h, c)
	t6 = c

	t5, c = bits.Add64(t5, p23l, 0)
	t6, c = bits.Add64(t6, p23h, c)
	t7 = c

	// Double the off-diagonal half (2^512 cannot overflow: the full
	// square x² < 2^512 bounds it).
	t7 = t7<<1 | t6>>63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 <<= 1

	// Add the diagonal x_i² at word pairs (2i, 2i+1).
	d0h, d0l := bits.Mul64(x0, x0)
	d1h, d1l := bits.Mul64(x1, x1)
	d2h, d2l := bits.Mul64(x2, x2)
	d3h, d3l := bits.Mul64(x3, x3)
	t0 = d0l
	t1, c = bits.Add64(t1, d0h, 0)
	t2, c = bits.Add64(t2, d1l, c)
	t3, c = bits.Add64(t3, d1h, c)
	t4, c = bits.Add64(t4, d2l, c)
	t5, c = bits.Add64(t5, d2h, c)
	t6, c = bits.Add64(t6, d3l, c)
	t7 += d3h + c // exact: the total is x² < 2^512
	return
}

// redSOS is the generic Montgomery reduction (SOS) of the 512-bit
// t = t7..t0 < p·2^256: four rows of m_i·p folded in, m_i = t_i·n0,
// each a 4×1 word product (five multiplications a row with m_i). It
// returns (t + m·p)/2^256 < 2p as an overflow bit hi and four words,
// for reduce to finish. Row i adds m_i·p at word i and leaves its
// carry-out pending one word above its last, where row i+1 absorbs it
// with its own; the running value stays below t + 2^256·p < 2^513, so
// the last row's carry is a single bit beyond t7.
func (f *Field) redSOS(t0, t1, t2, t3, t4, t5, t6, t7 uint64) (hi, r0, r1, r2, r3 uint64) {
	p0, p1, p2, p3, n0 := f.p[0], f.p[1], f.p[2], f.p[3], f.n0
	var c uint64
	m := t0 * n0
	c, _ = madd1(m, p0, t0)
	c, t1 = madd2(m, p1, t1, c)
	c, t2 = madd2(m, p2, t2, c)
	c, t3 = madd2(m, p3, t3, c)
	t4, hi = bits.Add64(t4, c, 0)

	m = t1 * n0
	c, _ = madd1(m, p0, t1)
	c, t2 = madd2(m, p1, t2, c)
	c, t3 = madd2(m, p2, t3, c)
	c, t4 = madd2(m, p3, t4, c)
	t5, hi = bits.Add64(t5, c, hi)

	m = t2 * n0
	c, _ = madd1(m, p0, t2)
	c, t3 = madd2(m, p1, t3, c)
	c, t4 = madd2(m, p2, t4, c)
	c, t5 = madd2(m, p3, t5, c)
	t6, hi = bits.Add64(t6, c, hi)

	m = t3 * n0
	c, _ = madd1(m, p0, t3)
	c, t4 = madd2(m, p1, t4, c)
	c, t5 = madd2(m, p2, t5, c)
	c, t6 = madd2(m, p3, t6, c)
	t7, hi = bits.Add64(t7, c, hi)
	return hi, t4, t5, t6, t7
}

// BatchInv sets dst[i] = xs[i]⁻¹ mod p for every i, amortizing one
// inversion across the whole batch via Montgomery's trick: invert the
// running product of all inputs, then peel per-element inverses off
// with two multiplications each (3(n−1) multiplications plus one Inv,
// versus n inversions). Inv's gcd runs on the product's value, so the
// batch takes variable time like Inv itself. Zero elements are
// skipped in place — dst[i] = 0, matching Inv's 0 ↦ 0 convention and
// the way batched point normalization skips the point at infinity.
// dst and xs must have equal length and may alias (including fully:
// BatchInv(xs, xs) inverts in place). The only heap allocation is the
// prefix-product scratch, one Element per input.
func (f *Field) BatchInv(dst, xs []Element) {
	if len(dst) != len(xs) {
		panic("fp: BatchInv length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return
	}
	// prefix[i] = product of the nonzero xs[0..i-1].
	prefix := make([]Element, n+1)
	prefix[0] = f.one
	for i := range xs {
		if f.IsZero(&xs[i]) {
			prefix[i+1] = prefix[i]
			continue
		}
		f.Mul(&prefix[i+1], &prefix[i], &xs[i])
	}
	var inv Element
	f.Inv(&inv, &prefix[n]) // all-zero batch: Inv(1) = 1, loop writes only zeros
	for i := n - 1; i >= 0; i-- {
		if f.IsZero(&xs[i]) {
			f.SetZero(&dst[i])
			continue
		}
		x := xs[i] // value copy: dst may alias xs
		f.Mul(&dst[i], &prefix[i], &inv)
		f.Mul(&inv, &inv, &x)
	}
}

// pow sets z = x^e for a public exponent e (little-endian limbs) by a
// 4-bit fixed window: x^1..x^15 are tabulated, then every exponent
// nibble costs four squarings and at most one multiplication. The
// walk branches on the nibbles of e, which is a field constant
// ((p + 1)/4 for Sqrt), never on x. Aliasing z with x is allowed.
func (f *Field) pow(z, x *Element, e *[Limbs]uint64) {
	var tab [15]Element
	tab[0] = *x
	for i := 1; i < 15; i++ {
		f.Mul(&tab[i], &tab[i-1], x)
	}
	r := f.one
	started := false
	for i := Limbs - 1; i >= 0; i-- {
		w := e[i]
		for nib := 15; nib >= 0; nib-- {
			if started {
				f.Sqr(&r, &r)
				f.Sqr(&r, &r)
				f.Sqr(&r, &r)
				f.Sqr(&r, &r)
			}
			d := (w >> (4 * uint(nib))) & 0xf
			if d != 0 {
				if started {
					f.Mul(&r, &r, &tab[d-1])
				} else {
					r = tab[d-1]
					started = true
				}
			}
		}
	}
	*z = r
}

// Sqrt sets z to a square root of x and reports whether x has one.
// The field prime must be ≡ 3 (mod 4) — true of P-256 and P-192, not
// of P-224 — so that the root is the single exponentiation
// x^((p+1)/4) through pow. Its square is checked against x, so a
// quadratic non-residue reports false and leaves z unchanged. The
// root returned is exactly the one math/big's a^((p+1)/4) gives. Sqrt
// panics on a field with p ≡ 1 (mod 4). Aliasing z with x is allowed.
func (f *Field) Sqrt(z, x *Element) bool {
	if f.sqrt == ([Limbs]uint64{}) {
		panic("fp: Sqrt needs a prime p ≡ 3 (mod 4)")
	}
	var r, r2 Element
	f.pow(&r, x, &f.sqrt)
	f.Sqr(&r2, &r)
	if !f.Equal(&r2, x) {
		return false
	}
	*z = r
	return true
}
