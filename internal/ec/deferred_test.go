package ec

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestCombinedMultDeferredMatchesEager: normalizing a deferred
// CombinedMult must be bit-identical to the eager call, on whichever
// backend the build selected (the purebig CI leg reruns this file
// against the oracle), including every degenerate dispatch arm.
func TestCombinedMultDeferredMatchesEager(t *testing.T) {
	for _, c := range []*Curve{P256(), P224(), P192()} {
		r := rand.New(rand.NewSource(17))
		d := new(big.Int).Rand(r, c.N)
		q := c.ScalarBaseMult(d)

		cases := []struct {
			name   string
			q      Point
			u1, u2 *big.Int
		}{
			{"generic", q, new(big.Int).Rand(r, c.N), new(big.Int).Rand(r, c.N)},
			{"u1-zero", q, big.NewInt(0), new(big.Int).Rand(r, c.N)},
			{"u2-zero", q, new(big.Int).Rand(r, c.N), big.NewInt(0)},
			{"both-zero", q, big.NewInt(0), big.NewInt(0)},
			{"q-infinity", Point{}, new(big.Int).Rand(r, c.N), new(big.Int).Rand(r, c.N)},
			{"u1-equals-n", q, new(big.Int).Set(c.N), new(big.Int).Rand(r, c.N)},
			{"unreduced", q, new(big.Int).Lsh(big.NewInt(7), 300), new(big.Int).Lsh(big.NewInt(11), 290)},
		}
		for _, tc := range cases {
			want := c.CombinedMult(tc.q, tc.u1, tc.u2)
			def := c.CombinedMultDeferred(tc.q, tc.u1, tc.u2)
			if got := def.Normalize(); !got.Equal(want) {
				t.Fatalf("%s/%s: deferred Normalize = %v, eager = %v", c.Name, tc.name, got, want)
			}
			if def.IsInfinity() != want.IsInfinity() {
				t.Fatalf("%s/%s: deferred IsInfinity = %v, eager point infinity = %v",
					c.Name, tc.name, def.IsInfinity(), want.IsInfinity())
			}
		}
	}
}

// TestMultTableCombinedMultDeferred drives the table-backed deferred
// path against both the eager table path and the table-less curve
// path.
func TestMultTableCombinedMultDeferred(t *testing.T) {
	for _, c := range []*Curve{P256(), P224(), P192()} {
		r := rand.New(rand.NewSource(19))
		d := new(big.Int).Rand(r, c.N)
		q := c.ScalarBaseMult(d)
		tab := c.NewMultTable(q)
		infTab := c.NewMultTable(Point{})

		for i := 0; i < 8; i++ {
			u1 := new(big.Int).Rand(r, c.N)
			u2 := new(big.Int).Rand(r, c.N)
			switch i {
			case 5:
				u1.SetInt64(0)
			case 6:
				u2.SetInt64(0)
			case 7:
				u1.SetInt64(0)
				u2.SetInt64(0)
			}
			want := tab.CombinedMult(u1, u2)
			if got := c.CombinedMult(q, u1, u2); !got.Equal(want) {
				t.Fatalf("%s: table eager disagrees with curve eager", c.Name)
			}
			def := tab.CombinedMultDeferred(u1, u2)
			if got := def.Normalize(); !got.Equal(want) {
				t.Fatalf("%s: table deferred = %v, eager = %v", c.Name, got, want)
			}
			wantInf := infTab.CombinedMult(u1, u2)
			defInf := infTab.CombinedMultDeferred(u1, u2)
			if got := defInf.Normalize(); !got.Equal(wantInf) {
				t.Fatalf("%s: infinity-table deferred = %v, eager = %v", c.Name, got, wantInf)
			}
		}
	}
}

// TestBatchNormalize exercises the shared-inversion conversion over
// batches mixing finite results, infinities, zero-value entries and —
// in the mixed subtest — all three curves at once.
func TestBatchNormalize(t *testing.T) {
	t.Run("single-curve", func(t *testing.T) {
		c := P256()
		r := rand.New(rand.NewSource(23))
		n := 33
		defs := make([]DeferredPoint, n)
		want := make([]Point, n)
		for i := range defs {
			d := new(big.Int).Rand(r, c.N)
			q := c.ScalarBaseMult(d)
			u1 := new(big.Int).Rand(r, c.N)
			u2 := new(big.Int).Rand(r, c.N)
			switch i % 7 {
			case 3:
				u1.SetInt64(0)
			case 5:
				// Force an infinity result: u1·G + u2·Q with Q = −(u1/u2)·G
				// is fiddly; just use the zero-value DeferredPoint.
				defs[i] = DeferredPoint{}
				want[i] = Point{}
				continue
			}
			defs[i] = c.CombinedMultDeferred(q, u1, u2)
			want[i] = c.CombinedMult(q, u1, u2)
		}
		got := BatchNormalize(defs)
		if len(got) != n {
			t.Fatalf("BatchNormalize returned %d points, want %d", len(got), n)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("BatchNormalize[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	})

	t.Run("empty", func(t *testing.T) {
		if got := BatchNormalize(nil); len(got) != 0 {
			t.Fatalf("BatchNormalize(nil) = %v", got)
		}
	})

	t.Run("all-infinity", func(t *testing.T) {
		c := P256()
		defs := []DeferredPoint{
			{},
			c.CombinedMultDeferred(Point{}, big.NewInt(0), big.NewInt(0)),
		}
		for i, p := range BatchNormalize(defs) {
			if !p.IsInfinity() {
				t.Fatalf("entry %d: want infinity, got %v", i, p)
			}
		}
	})

	t.Run("mixed-curves", func(t *testing.T) {
		curves := []*Curve{P256(), P224(), P192()}
		r := rand.New(rand.NewSource(29))
		var defs []DeferredPoint
		var want []Point
		for i := 0; i < 12; i++ {
			c := curves[i%3]
			d := new(big.Int).Rand(r, c.N)
			q := c.ScalarBaseMult(d)
			u1 := new(big.Int).Rand(r, c.N)
			u2 := new(big.Int).Rand(r, c.N)
			defs = append(defs, c.CombinedMultDeferred(q, u1, u2))
			want = append(want, c.CombinedMult(q, u1, u2))
		}
		got := BatchNormalize(defs)
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("mixed-curve BatchNormalize[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	})
}

// BenchmarkMultTableBuild measures the cost the SharedTableCache
// amortizes away fleet-wide: the signed comb's 3d doublings and ten
// additions plus one shared-inversion affine conversion.
func BenchmarkMultTableBuild(b *testing.B) {
	c := P256()
	q := c.ScalarBaseMult(big.NewInt(0x5eed))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.NewMultTable(q)
	}
}

// BenchmarkBatchNormalize pits the shared-inversion conversion against
// per-point Normalize at an EstablishAll-wave batch size.
func BenchmarkBatchNormalize(b *testing.B) {
	c := P256()
	r := rand.New(rand.NewSource(31))
	const n = 16
	defs := make([]DeferredPoint, n)
	for i := range defs {
		d := new(big.Int).Rand(r, c.N)
		q := c.ScalarBaseMult(d)
		defs[i] = c.CombinedMultDeferred(q, new(big.Int).Rand(r, c.N), new(big.Int).Rand(r, c.N))
	}
	b.Run("batch-16", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = BatchNormalize(defs)
		}
	})
	b.Run("sequential-16", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range defs {
				_ = defs[j].Normalize()
			}
		}
	})
}
