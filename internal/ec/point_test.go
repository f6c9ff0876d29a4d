package ec

import (
	"bytes"
	"errors"
	"io"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/detrand"
)

func newDetRand(seed int64) io.Reader { return detrand.NewReader(uint64(seed)) }

func randPoint(t *testing.T, c *Curve, rng io.Reader) Point {
	t.Helper()
	k, err := c.RandomScalar(rng)
	if err != nil {
		t.Fatalf("RandomScalar: %v", err)
	}
	return c.ScalarBaseMult(k)
}

func TestGroupLaws(t *testing.T) {
	rng := newDetRand(1)
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			p := randPoint(t, c, rng)
			q := randPoint(t, c, rng)
			r := randPoint(t, c, rng)

			// Commutativity.
			if !c.Add(p, q).Equal(c.Add(q, p)) {
				t.Error("P+Q != Q+P")
			}
			// Associativity.
			if !c.Add(c.Add(p, q), r).Equal(c.Add(p, c.Add(q, r))) {
				t.Error("(P+Q)+R != P+(Q+R)")
			}
			// Identity.
			if !c.Add(p, Infinity()).Equal(p) {
				t.Error("P+∞ != P")
			}
			if !c.Add(Infinity(), p).Equal(p) {
				t.Error("∞+P != P")
			}
			// Inverse.
			if !c.Add(p, c.Neg(p)).IsInfinity() {
				t.Error("P+(−P) != ∞")
			}
			// Doubling consistency.
			if !c.Double(p).Equal(c.Add(p, p)) {
				t.Error("2P != P+P")
			}
			// Subtraction.
			if !c.Sub(c.Add(p, q), q).Equal(p) {
				t.Error("(P+Q)−Q != P")
			}
			// Closure.
			if !c.IsOnCurve(c.Add(p, q)) {
				t.Error("P+Q left the curve")
			}
		})
	}
}

func TestDoubleInfinityAndTwoTorsion(t *testing.T) {
	c := P256()
	if !c.Double(Infinity()).IsInfinity() {
		t.Error("2·∞ != ∞")
	}
	// A point with y = 0 would be its own inverse; the NIST curves have
	// prime order so no such point exists, but the formula must still
	// return ∞ for the synthetic input.
	if !c.fromJacobian(c.jacDouble(&jacobianPoint{
		x: big.NewInt(5), y: new(big.Int), z: big.NewInt(1),
	})).IsInfinity() {
		t.Error("doubling a y=0 point must give ∞")
	}
}

func TestEncodingRoundTrip(t *testing.T) {
	rng := newDetRand(2)
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			for i := 0; i < 16; i++ {
				p := randPoint(t, c, rng)

				enc := c.EncodeUncompressed(p)
				if len(enc) != c.UncompressedPointSize() {
					t.Fatalf("uncompressed length %d, want %d", len(enc), c.UncompressedPointSize())
				}
				dec, err := c.DecodePoint(enc)
				if err != nil {
					t.Fatalf("decode uncompressed: %v", err)
				}
				if !dec.Equal(p) {
					t.Fatal("uncompressed round trip failed")
				}

				comp := c.EncodeCompressed(p)
				if len(comp) != c.CompressedPointSize() {
					t.Fatalf("compressed length %d, want %d", len(comp), c.CompressedPointSize())
				}
				dec2, err := c.DecodePoint(comp)
				if err != nil {
					t.Fatalf("decode compressed: %v", err)
				}
				if !dec2.Equal(p) {
					t.Fatal("compressed round trip failed")
				}
			}
		})
	}
}

func TestEncodingInfinity(t *testing.T) {
	c := P256()
	enc := c.EncodeUncompressed(Infinity())
	if !bytes.Equal(enc, []byte{0x00}) {
		t.Errorf("infinity encoding = %x, want 00", enc)
	}
	p, err := c.DecodePoint(enc)
	if err != nil || !p.IsInfinity() {
		t.Errorf("infinity decode: %v, %v", p, err)
	}
	if !bytes.Equal(c.EncodeCompressed(Infinity()), []byte{0x00}) {
		t.Error("compressed infinity encoding wrong")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			g := c.Generator()
			valid := c.EncodeUncompressed(g)

			cases := map[string][]byte{
				"empty":             {},
				"bad prefix":        {0x05, 1, 2, 3},
				"short":             valid[:10],
				"long":              append(append([]byte{}, valid...), 0x00),
				"infinity trailing": {0x00, 0x01},
			}
			for name, data := range cases {
				if _, err := c.DecodePoint(data); err == nil {
					t.Errorf("%s: decode accepted malformed input", name)
				}
			}

			// Off-curve uncompressed point.
			offCurve := append([]byte{}, valid...)
			offCurve[len(offCurve)-1] ^= 0x01
			if _, err := c.DecodePoint(offCurve); err == nil {
				t.Error("off-curve point accepted")
			}

			// Compressed x with no square root: scan a few small x for
			// one that does not lift, and require ErrInvalidPoint.
			found := false
			for x := int64(1); x < 64 && !found; x++ {
				cand := make([]byte, c.CompressedPointSize())
				cand[0] = 0x02
				big.NewInt(x).FillBytes(cand[1:])
				if _, err := c.DecodePoint(cand); err != nil {
					if !errors.Is(err, ErrInvalidPoint) {
						t.Fatalf("x=%d: non-residue error %v is not ErrInvalidPoint", x, err)
					}
					found = true
				}
			}
			if !found {
				t.Error("expected at least one non-residue x in [1,64)")
			}

			// Compressed x >= p must be rejected.
			tooBig := make([]byte, c.CompressedPointSize())
			tooBig[0] = 0x02
			new(big.Int).Set(c.P).FillBytes(tooBig[1:])
			if _, err := c.DecodePoint(tooBig); err == nil {
				t.Error("compressed x >= p accepted")
			}
		})
	}
}

func TestCompressionParity(t *testing.T) {
	// Both lifts of the same x must decode to distinct points that are
	// negatives of each other.
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			g := c.Generator()
			enc := c.EncodeCompressed(g)
			encFlip := append([]byte{}, enc...)
			encFlip[0] ^= 0x01

			p1, err := c.DecodePoint(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !p1.Equal(g) {
				t.Error("compressed generator did not decode to G")
			}
			p2, err := c.DecodePoint(encFlip)
			if err != nil {
				t.Fatal(err)
			}
			if !p2.Equal(c.Neg(p1)) {
				t.Error("flipped parity did not decode to the negated point")
			}
		})
	}
}

// TestLiftXMatchesBig diffs point decompression against the math/big
// square root for random x, both parity bits, on every curve: the fp
// root (P-256 and P-192, p ≡ 3 mod 4) must equal rhsSqrtBig's bit for
// bit, non-residues must fail on both, and liftX must agree with the
// oracle's lift. Under -tags ec_purebig the fp root is still diffed
// directly, so both CI legs run the comparison.
func TestLiftXMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, c := range Curves() {
		t.Run(c.Name, func(t *testing.T) {
			xs := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(c.P, big.NewInt(1)), c.Gx}
			for i := 0; i < 200; i++ {
				xs = append(xs, new(big.Int).Rand(r, c.P))
			}
			residues, nonResidues := 0, 0
			for _, x := range xs {
				want, wantOK := c.rhsSqrtBig(x)
				if wantOK {
					residues++
				} else {
					nonResidues++
				}
				if c.P.Bit(1) == 1 {
					got, ok := c.rhsSqrtFP(x)
					if ok != wantOK || (ok && got.Cmp(want) != 0) {
						t.Fatalf("x=%x: fp root (%v, %v), math/big (%v, %v)", x, got, ok, want, wantOK)
					}
				}
				for yBit := uint(0); yBit < 2; yBit++ {
					y, err := c.liftX(x, yBit)
					if !wantOK {
						if !errors.Is(err, ErrInvalidPoint) {
							t.Fatalf("x=%x: non-residue lifted (%v, %v)", x, y, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("x=%x bit %d: %v", x, yBit, err)
					}
					wantY := want
					if wantY.Bit(0) != yBit {
						wantY = modNeg(wantY, c.P)
					}
					if y.Cmp(wantY) != 0 || !c.IsOnCurve(Point{X: x, Y: y}) {
						t.Fatalf("x=%x bit %d: y = %x, want %x", x, yBit, y, wantY)
					}
				}
			}
			if residues == 0 || nonResidues == 0 {
				t.Fatalf("sweep saw %d residues and %d non-residues, want both", residues, nonResidues)
			}
		})
	}
}

// TestQuickEncodeDecode is a property test: every k·G round-trips
// through both encodings.
func TestQuickEncodeDecode(t *testing.T) {
	c := P256()
	f := func(seed int64) bool {
		k := new(big.Int).Mod(big.NewInt(seed), c.N)
		if k.Sign() <= 0 {
			k.SetInt64(1)
		}
		p := c.ScalarBaseMult(k)
		u, err1 := c.DecodePoint(c.EncodeUncompressed(p))
		cp, err2 := c.DecodePoint(c.EncodeCompressed(p))
		return err1 == nil && err2 == nil && u.Equal(p) && cp.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 32}); err != nil {
		t.Error(err)
	}
}

func TestPointClone(t *testing.T) {
	c := P256()
	p := c.Generator()
	q := p.Clone()
	q.X.Add(q.X, big.NewInt(1))
	if p.X.Cmp(c.Gx) != 0 {
		t.Error("Clone aliased the original coordinates")
	}
	if !Infinity().Clone().IsInfinity() {
		t.Error("Clone of infinity must stay infinity")
	}
}
