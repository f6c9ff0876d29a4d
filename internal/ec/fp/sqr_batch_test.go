package fp

import (
	"math/big"
	"math/rand"
	"testing"
)

// sqrEdgeValues is the boundary catalogue for the dedicated squaring:
// the generic edge set plus the Montgomery radix R = 2^256 (whose
// residue exercises the reduction's top rows), every limb boundary
// 2^64k, and values straddling them by one.
func sqrEdgeValues(p *big.Int) []*big.Int {
	one := big.NewInt(1)
	vals := edgeValues(p)
	vals = append(vals, new(big.Int).Lsh(one, 256)) // R
	for _, k := range []uint{32, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255} {
		b := new(big.Int).Lsh(one, k)
		vals = append(vals,
			new(big.Int).Set(b),
			new(big.Int).Sub(b, one),
			new(big.Int).Add(b, one),
		)
	}
	return vals
}

// TestSqrMatchesMul is the differential gate for the dedicated
// squaring: on every bundled prime, Sqr(x) must equal Mul(x, x) (and
// both the big.Int oracle) over the edge catalogue and 10k random
// elements. This file compiles identically under -tags ec_purebig, so
// the purebig CI leg runs the same sweep.
func TestSqrMatchesMul(t *testing.T) {
	const randomCount = 10000
	for _, hex := range testPrimes {
		p := mustPrime(t, hex)
		f, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		vals := append(sqrEdgeValues(p), randValues(p, r, randomCount)...)
		want := new(big.Int)
		for _, v := range vals {
			var x, viaMul, viaSqr Element
			f.FromBig(&x, v)
			f.Mul(&viaMul, &x, &x)
			f.Sqr(&viaSqr, &x)
			if !f.Equal(&viaSqr, &viaMul) {
				t.Fatalf("p=%s: Sqr(%v) = %v, Mul(x,x) = %v",
					hex, v, f.ToBig(&viaSqr), f.ToBig(&viaMul))
			}
			vm := new(big.Int).Mod(v, p)
			want.Mul(vm, vm).Mod(want, p)
			if g := f.ToBig(&viaSqr); g.Cmp(want) != 0 {
				t.Fatalf("p=%s: Sqr(%v) = %v, oracle %v", hex, vm, g, want)
			}
			// In-place squaring must agree too.
			f.Sqr(&x, &x)
			if !f.Equal(&x, &viaSqr) {
				t.Fatalf("p=%s: in-place Sqr(%v) diverged", hex, vm)
			}
		}
	}
}

func TestBatchInvEmpty(t *testing.T) {
	p := mustPrime(t, testPrimes[0])
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	f.BatchInv(nil, nil)
	f.BatchInv([]Element{}, []Element{})
}

func TestBatchInvLengthMismatch(t *testing.T) {
	p := mustPrime(t, testPrimes[0])
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BatchInv accepted mismatched slice lengths")
		}
	}()
	f.BatchInv(make([]Element, 2), make([]Element, 3))
}

func TestBatchInvSingle(t *testing.T) {
	p := mustPrime(t, testPrimes[0])
	f, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var x, want Element
	f.FromBig(&x, big.NewInt(0xabcdef))
	f.Inv(&want, &x)
	got := make([]Element, 1)
	f.BatchInv(got, []Element{x})
	if !f.Equal(&got[0], &want) {
		t.Fatalf("BatchInv([x])[0] = %v, want Inv(x) = %v",
			f.ToBig(&got[0]), f.ToBig(&want))
	}
}

// TestBatchInvMatchesInv is the property test: on every bundled prime
// and a spread of batch sizes, BatchInv(xs)[i] == Inv(xs[i]) for all
// i, with zero elements skipped in place (0 ↦ 0) exactly as the
// batched affine conversion skips the point at infinity. Also checks
// full in-place aliasing and the all-zero batch.
func TestBatchInvMatchesInv(t *testing.T) {
	for _, hex := range testPrimes {
		p := mustPrime(t, hex)
		f, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(11))
		for _, n := range []int{1, 2, 3, 7, 64, 129} {
			xs := make([]Element, n)
			for i := range xs {
				f.FromBig(&xs[i], new(big.Int).Rand(r, p))
			}
			// Sprinkle zeros, including at the batch boundaries.
			if n >= 2 {
				f.SetZero(&xs[0])
				f.SetZero(&xs[n-1])
			}
			if n >= 7 {
				f.SetZero(&xs[n/2])
			}
			dst := make([]Element, n)
			f.BatchInv(dst, xs)
			for i := range xs {
				var want Element
				f.Inv(&want, &xs[i])
				if !f.Equal(&dst[i], &want) {
					t.Fatalf("p=%s n=%d: BatchInv[%d] = %v, Inv = %v",
						hex, n, i, f.ToBig(&dst[i]), f.ToBig(&want))
				}
			}
			// Full aliasing: invert in place and compare.
			inPlace := make([]Element, n)
			copy(inPlace, xs)
			f.BatchInv(inPlace, inPlace)
			for i := range inPlace {
				if !f.Equal(&inPlace[i], &dst[i]) {
					t.Fatalf("p=%s n=%d: in-place BatchInv[%d] diverged", hex, n, i)
				}
			}
		}
		// All-zero batch: every output zero, no panic.
		zeros := make([]Element, 5)
		out := make([]Element, 5)
		f.BatchInv(out, zeros)
		for i := range out {
			if !f.IsZero(&out[i]) {
				t.Fatalf("p=%s: BatchInv(all-zero)[%d] != 0", hex, i)
			}
		}
	}
}

func BenchmarkSqr(b *testing.B) {
	benchPerPrime(b, func(b *testing.B, f *Field, x, _ Element) {
		for i := 0; i < b.N; i++ {
			f.Sqr(&x, &x)
		}
	})
}

// BenchmarkSqrViaMul is the baseline the dedicated squaring is judged
// against: the same op through Mul(x, x), whose product spends sixteen
// word multiplications where Sqr's spends ten. On P-256 both reduce
// with the P-256 fold, so the gap is the product alone; on the other primes
// Sqr's SOS rows also face Mul's interleaved CIOS ones.
func BenchmarkSqrViaMul(b *testing.B) {
	benchPerPrime(b, func(b *testing.B, f *Field, x, _ Element) {
		for i := 0; i < b.N; i++ {
			f.Mul(&x, &x, &x)
		}
	})
}

// BenchmarkBatchInv measures Montgomery's trick against
// BenchmarkInvSequential's per-element Inv baseline at batch size
// 8 (one MultTable comb) and at 15 and 64, the other sizes of the
// batch_ops trajectory in BENCH_ec_backend.json.
func BenchmarkBatchInv(b *testing.B) {
	p, _ := new(big.Int).SetString(testPrimes[0], 16)
	f, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{8, 15, 64} {
		xs := make([]Element, n)
		r := rand.New(rand.NewSource(13))
		for i := range xs {
			f.FromBig(&xs[i], new(big.Int).Rand(r, f.Modulus()))
		}
		dst := make([]Element, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.BatchInv(dst, xs)
			}
		})
	}
}

func BenchmarkInvSequential(b *testing.B) {
	p, _ := new(big.Int).SetString(testPrimes[0], 16)
	f, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{8, 15, 64} {
		xs := make([]Element, n)
		r := rand.New(rand.NewSource(13))
		for i := range xs {
			f.FromBig(&xs[i], new(big.Int).Rand(r, f.Modulus()))
		}
		dst := make([]Element, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range xs {
					f.Inv(&dst[j], &xs[j])
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 8:
		return "n=8"
	case 15:
		return "n=15"
	case 64:
		return "n=64"
	}
	return "n=?"
}
