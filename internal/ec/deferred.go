package ec

import (
	"math/big"

	"repro/internal/ec/fp"
)

// Deferred-normalization API. Every scalar multiplication ends with
// one field inversion to leave Jacobian coordinates; for a single call
// that is unavoidable, but a batch verifier checking an entire
// EstablishAll wave performs N independent CombinedMults and can share
// one inversion across all of them. The *Deferred variants stop right
// before the affine conversion and hand back an opaque DeferredPoint;
// BatchNormalize then converts any number of them with a single
// inversion per curve (Montgomery's trick via fp.Field.BatchInv on the
// default backend, batchToAffine on the purebig oracle).

// DeferredPoint is a scalar-multiplication result still in Jacobian
// coordinates, awaiting its affine conversion. The zero value (no
// curve) normalizes to the point at infinity. A DeferredPoint is
// produced by the *Deferred variants and consumed by Normalize or
// BatchNormalize; it is immutable and safe to copy.
type DeferredPoint struct {
	c  *Curve
	fp fpJac          // default backend result
	bg *jacobianPoint // purebig oracle result
}

// Curve returns the curve the deferred result lives on (nil for the
// zero value).
func (d *DeferredPoint) Curve() *Curve { return d.c }

// IsInfinity reports whether the deferred result is the point at
// infinity (no inversion needed to tell: Z = 0).
func (d *DeferredPoint) IsInfinity() bool {
	switch {
	case d.c == nil:
		return true
	case d.bg != nil:
		return d.bg.isInfinity()
	default:
		return d.c.fpIsInfinity(&d.fp)
	}
}

// Normalize converts the single deferred result to affine coordinates
// (one inversion). For batches, BatchNormalize amortizes the inversion
// instead.
func (d *DeferredPoint) Normalize() Point {
	switch {
	case d.c == nil:
		return Point{}
	case d.bg != nil:
		return d.c.fromJacobian(d.bg)
	default:
		return d.c.fpToPoint(&d.fp)
	}
}

// CombinedMultDeferred is CombinedMult with the affine conversion
// deferred: it returns u1·G + u2·Q as a DeferredPoint for a later
// BatchNormalize. The dispatch (degenerate scalars, infinity Q,
// backend selection) mirrors CombinedMult exactly, so normalizing the
// result is bit-identical to the eager call.
//
//detlint:allow hotpath scalar reduction mod N at the public big.Int boundary: two O(1) allocs before the limb-pure loop
func (c *Curve) CombinedMultDeferred(q Point, u1, u2 *big.Int) DeferredPoint {
	u1r := new(big.Int).Mod(u1, c.N)
	u2r := new(big.Int).Mod(u2, c.N)
	d := DeferredPoint{c: c}
	if c.useFP() {
		switch {
		case q.IsInfinity() || u2r.Sign() == 0:
			if u1r.Sign() == 0 {
				c.fpSetInfinity(&d.fp)
			} else {
				c.scalarBaseMultFPJac(&d.fp, u1r)
			}
		case u1r.Sign() == 0:
			c.scalarMultFPJac(&d.fp, q, u2r)
		default:
			c.combinedMultFPJac(&d.fp, q, u1r, u2r)
		}
		return d
	}
	switch {
	case q.IsInfinity() || u2r.Sign() == 0:
		if u1r.Sign() == 0 {
			d.bg = c.jacInfinity()
		} else {
			d.bg = c.scalarMultWNAFAffine(c.baseMultiples(), u1r)
		}
	case u1r.Sign() == 0:
		d.bg = c.scalarMultWNAF(c.oddMultiples(q, wnafWindow), u2r)
	default:
		d.bg = c.straussInterleave(u1r, u2r, c.qTableAdd(c.oddMultiples(q, wnafWindow)))
	}
	return d
}

// qTableAdd adapts a Jacobian odd-multiples table of Q into the digit
// callback straussInterleave expects (shared by the eager and deferred
// oracle paths).
func (c *Curve) qTableAdd(qTable []*jacobianPoint) func(*jacobianPoint, int8) *jacobianPoint {
	return func(acc *jacobianPoint, d int8) *jacobianPoint {
		if d > 0 {
			return c.jacAdd(acc, qTable[(d-1)/2])
		}
		return c.jacAdd(acc, c.jacNeg(qTable[(-d-1)/2]))
	}
}

// CombinedMultDeferred is MultTable.CombinedMult with the affine
// conversion deferred — the batch-verification hot path against a
// cached signer table.
//
//detlint:allow hotpath scalar reduction mod N at the public big.Int boundary: two O(1) allocs before the limb-pure loop
func (t *MultTable) CombinedMultDeferred(u1, u2 *big.Int) DeferredPoint {
	c := t.c
	u1r := new(big.Int).Mod(u1, c.N)
	u2r := new(big.Int).Mod(u2, c.N)
	d := DeferredPoint{c: c}
	if t.q.IsInfinity() || u2r.Sign() == 0 {
		// Degenerates to the base term; same dispatch as CombinedMult's
		// ScalarBaseMult call.
		if c.useFP() {
			if u1r.Sign() == 0 {
				c.fpSetInfinity(&d.fp)
			} else {
				c.scalarBaseMultFPJac(&d.fp, u1r)
			}
		} else {
			if u1r.Sign() == 0 {
				d.bg = c.jacInfinity()
			} else {
				d.bg = c.scalarMultWNAFAffine(c.baseMultiples(), u1r)
			}
		}
		return d
	}
	if t.fpTab != nil {
		var s fpScratch
		var kl [4]uint64
		scalarLimbs(u2r, &kl)
		t.fpMult(&d.fp, &kl, &s)
		if u1r.Sign() != 0 {
			c.combAccumulate(&d.fp, u1r, &s)
		}
		return d
	}
	if u1r.Sign() == 0 {
		d.bg = c.scalarMultWNAFAffine(t.bigTab, u2r)
		return d
	}
	d.bg = c.straussInterleave(u1r, u2r, func(acc *jacobianPoint, dg int8) *jacobianPoint {
		if dg > 0 {
			return c.jacAddAffine(acc, t.bigTab[(dg-1)/2])
		}
		return c.jacAddAffine(acc, c.Neg(t.bigTab[(-dg-1)/2]))
	})
	return d
}

// BatchNormalize converts a batch of deferred results to affine
// coordinates with one field inversion per curve present in the batch
// (usually exactly one). Points at infinity and zero-value entries map
// to the infinity Point in place, mirroring the single-point
// conversion. The input is not modified.
func BatchNormalize(pts []DeferredPoint) []Point {
	out := make([]Point, len(pts))
	done := make([]bool, len(pts))
	for i := range pts {
		if done[i] {
			continue
		}
		c := pts[i].c
		if c == nil {
			done[i] = true
			continue // zero value → infinity Point
		}
		var idx []int
		for j := i; j < len(pts); j++ {
			if !done[j] && pts[j].c == c {
				idx = append(idx, j)
				done[j] = true
			}
		}
		if pts[i].bg != nil || !c.useFP() {
			jacs := make([]*jacobianPoint, len(idx))
			for k, j := range idx {
				jacs[k] = pts[j].bg
				if jacs[k] == nil {
					jacs[k] = c.jacInfinity()
				}
			}
			for k, p := range c.batchToAffine(jacs) {
				out[idx[k]] = p
			}
			continue
		}
		// fp leg: one BatchInv over the Z coordinates; infinity entries
		// (Z = 0) are skipped in place by BatchInv's zero convention.
		f := c.fpF
		zinv := make([]fp.Element, len(idx))
		for k, j := range idx {
			zinv[k] = pts[j].fp.z
		}
		f.BatchInv(zinv, zinv)
		var zinv2, x, y fp.Element
		for k, j := range idx {
			if f.IsZero(&zinv[k]) {
				continue // infinity → zero Point
			}
			f.Sqr(&zinv2, &zinv[k])
			f.Mul(&x, &pts[j].fp.x, &zinv2)
			f.Mul(&zinv2, &zinv2, &zinv[k])
			f.Mul(&y, &pts[j].fp.y, &zinv2)
			out[j] = Point{X: f.ToBig(&x), Y: f.ToBig(&y)}
		}
	}
	return out
}
