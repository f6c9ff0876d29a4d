package fp

import "math/bits"

// Inversion by safegcd: Bernstein and Yang, "Fast constant-time gcd
// computation and modular inversion", TCHES 2019, in the variable-time
// form of libsecp256k1's modinv64_var. The gcd runs on f = p and g = x
// in signed base 2^62. Each outer step does 62 divsteps on the low
// words alone, collects them into a 2×2 matrix scaled by 2^62, and
// applies that matrix to the full-width f, g and to the Bézout pair
// d, e, which it keeps divisible by 2^62 by adding multiples of p.
// When g reaches 0, f = ±1 and d = ±x⁻¹ mod p.

// signed62 is the integer Σ v[i]·2^(62i). Normalized, v[0..3] lie in
// [0, 2^62) and v[4] carries the sign; in between, every limb of f, g,
// d and e stays within (−2^62, 2^62). Five limbs span 310 bits, room
// for any value the algorithm meets with a modulus below 2^256.
type signed62 [5]int64

const mask62 = 1<<62 - 1

// trans62 is the transition matrix of 62 divsteps, scaled by 2^62:
// [f', g'] = [u v; q r]·[f, g] / 2^62. |u| + |v| and |q| + |r| are at
// most 2^62.
type trans62 struct{ u, v, q, r int64 }

// i128 is a two's-complement 128-bit accumulator.
type i128 struct{ lo, hi uint64 }

// mulAdd returns c + a·b.
func (c i128) mulAdd(a, b int64) i128 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	hi -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a) // unsigned product to signed
	var carry uint64
	c.lo, carry = bits.Add64(c.lo, lo, 0)
	c.hi += hi + carry
	return c
}

// shr62 returns c >> 62, arithmetic.
func (c i128) shr62() i128 {
	return i128{c.lo>>62 | c.hi<<2, uint64(int64(c.hi) >> 62)}
}

// toSigned62 converts fully reduced limbs to normalized signed62 form.
func toSigned62(x *Element) signed62 {
	return signed62{
		int64(x[0] & mask62),
		int64((x[0]>>62 | x[1]<<2) & mask62),
		int64((x[1]>>60 | x[2]<<4) & mask62),
		int64((x[2]>>58 | x[3]<<6) & mask62),
		int64(x[3] >> 56),
	}
}

// Inv sets z = x⁻¹ mod p by safegcd; Inv of 0 yields 0, and callers
// that care check IsZero first. Its running time depends on x. The
// limbs of x hold a·R, so the gcd yields a⁻¹·R⁻¹, and one Montgomery
// multiplication by R³ mod p returns a⁻¹·R. Aliasing z with x is
// allowed. No heap allocation.
func (f *Field) Inv(z, x *Element) {
	d, e := signed62{}, signed62{1}
	fv, g := f.p62, toSigned62(x)
	eta := int64(-1) // −δ, with δ = 1 at the start
	n := len(fv)     // limbs of f and g still in use
	for {
		var t trans62
		eta, t = divsteps62(eta, uint64(fv[0]), uint64(g[0]))
		f.updateDE(&d, &e, &t)
		updateFG(n, &fv, &g, &t)
		if g[0] == 0 {
			nz := int64(0)
			for j := 1; j < n; j++ {
				nz |= g[j]
			}
			if nz == 0 {
				break
			}
		}
		// When the top limbs of f and g are both 0 or −1, fold them into
		// the limb below and work one limb shorter.
		fn, gn := fv[n-1], g[n-1]
		if n > 1 && fn^(fn>>63) == 0 && gn^(gn>>63) == 0 {
			fv[n-2] |= int64(uint64(fn) << 62)
			g[n-2] |= int64(uint64(gn) << 62)
			n--
		}
	}
	// f = ±1 (or ±p when x = 0, where d = 0 regardless).
	f.normalize62(&d, fv[n-1])
	inv := Element{
		uint64(d[0]) | uint64(d[1])<<62,
		uint64(d[1])>>2 | uint64(d[2])<<60,
		uint64(d[2])>>4 | uint64(d[3])<<58,
		uint64(d[3])>>6 | uint64(d[4])<<56,
	}
	f.Mul(z, &inv, &f.r3)
}

// divsteps62 runs 62 divsteps on the low words f0 (odd) and g0 of f
// and g, returning the new eta and the transition matrix. Runs of
// even g are skipped with one trailing-zero count, and each odd step
// cancels up to six low bits of g with a multiple of f found by a
// Newton step on f⁻¹ mod 64 (four bits, from a short formula, when no
// swap was made).
func divsteps62(eta int64, f0, g0 uint64) (int64, trans62) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	f, g := f0, g0
	i := 62
	for {
		// The sentinel bits above i stop the count at the steps left.
		zeros := bits.TrailingZeros64(g | ^uint64(0)<<uint(i))
		g >>= uint(zeros)
		u <<= uint(zeros)
		v <<= uint(zeros)
		eta -= int64(zeros)
		i -= zeros
		if i == 0 {
			break
		}
		// f and g are odd. No more than i bits may be cancelled, nor
		// more than eta + 1, after which eta changes sign again.
		var m, w uint64
		if eta < 0 {
			eta = -eta
			f, g = g, -f
			u, q = q, -u
			v, r = r, -v
			limit := min(int(eta)+1, i)
			m = ^uint64(0) >> uint(64-limit) & 63
			w = f * g * (f*f - 2) & m
		} else {
			limit := min(int(eta)+1, i)
			m = ^uint64(0) >> uint(64-limit) & 15
			w = f + (f+1)&4<<1
			w = -w * g & m
		}
		g += f * w
		q += u * w
		r += v * w
	}
	return eta, trans62{int64(u), int64(v), int64(q), int64(r)}
}

// updateDE sets [d, e] = (t·[d, e] + p·[md, me]) / 2^62, with md and
// me chosen so the division is exact: modulo p that is t·[d, e]/2^62.
// d and e stay in (−2p, p).
func (f *Field) updateDE(d, e *signed62, t *trans62) {
	u, v, q, r := t.u, t.v, t.q, t.r
	p := &f.p62
	// Start md, me at the matrix row of each negative input, which
	// keeps the outputs above −2p.
	sd, se := d[4]>>63, e[4]>>63
	md := u&sd + v&se
	me := q&sd + r&se
	var cd, ce i128
	cd = cd.mulAdd(u, d[0]).mulAdd(v, e[0])
	ce = ce.mulAdd(q, d[0]).mulAdd(r, e[0])
	md -= int64((f.pi62*cd.lo + uint64(md)) & mask62)
	me -= int64((f.pi62*ce.lo + uint64(me)) & mask62)
	cd = cd.mulAdd(p[0], md).shr62() // low 62 bits now zero
	ce = ce.mulAdd(p[0], me).shr62()
	for i := 1; i < len(d); i++ {
		cd = cd.mulAdd(u, d[i]).mulAdd(v, e[i]).mulAdd(p[i], md)
		ce = ce.mulAdd(q, d[i]).mulAdd(r, e[i]).mulAdd(p[i], me)
		d[i-1] = int64(cd.lo & mask62)
		e[i-1] = int64(ce.lo & mask62)
		cd, ce = cd.shr62(), ce.shr62()
	}
	d[4], e[4] = int64(cd.lo), int64(ce.lo)
}

// updateFG sets [f, g] = t·[f, g] / 2^62 over their low n limbs; the
// division is exact by construction of t.
func updateFG(n int, f, g *signed62, t *trans62) {
	u, v, q, r := t.u, t.v, t.q, t.r
	var cf, cg i128
	cf = cf.mulAdd(u, f[0]).mulAdd(v, g[0]).shr62()
	cg = cg.mulAdd(q, f[0]).mulAdd(r, g[0]).shr62()
	for i := 1; i < n; i++ {
		fi, gi := f[i], g[i]
		cf = cf.mulAdd(u, fi).mulAdd(v, gi)
		cg = cg.mulAdd(q, fi).mulAdd(r, gi)
		f[i-1] = int64(cf.lo & mask62)
		g[i-1] = int64(cg.lo & mask62)
		cf, cg = cf.shr62(), cg.shr62()
	}
	f[n-1], g[n-1] = int64(cf.lo), int64(cg.lo)
}

// normalize62 brings d from (−2p, p) to [0, p), negated when sign < 0,
// with normalized limbs: add p if d < 0, negate on request, carry the
// limbs back into range, then add p once more if still negative.
func (f *Field) normalize62(d *signed62, sign int64) {
	p := &f.p62
	add := d[4] >> 63
	neg := sign >> 63
	for i := range d {
		d[i] = (d[i] + p[i]&add ^ neg) - neg
	}
	d.carry62()
	add = d[4] >> 63
	for i := range d {
		d[i] += p[i] & add
	}
	d.carry62()
}

// carry62 propagates each limb's bits above 62 into the next limb.
func (d *signed62) carry62() {
	for i := 0; i < len(d)-1; i++ {
		d[i+1] += d[i] >> 62
		d[i] &= mask62
	}
}
