package ecdsa

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/ec"
)

// batchFixture signs n distinct digests under n distinct keys on
// curve c (every key precomputed when tables is true).
func batchFixture(t testing.TB, c *ec.Curve, n int, tables bool) []BatchItem {
	rng := newDetRand(int64(41 + n))
	items := make([]BatchItem, n)
	for i := range items {
		key, err := GenerateKey(c, rng)
		if err != nil {
			t.Fatal(err)
		}
		digest := sha256.Sum256([]byte(fmt.Sprintf("wave item %d on %s", i, c.Name)))
		sig, err := key.SignDigest(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		pub := key.Public()
		if tables {
			pub.Precompute()
		}
		items[i] = BatchItem{Key: pub, Digest: digest[:], Sig: sig}
	}
	return items
}

// TestVerifyBatchAllValid: every verdict true across batch sizes,
// curves and table presence.
func TestVerifyBatchAllValid(t *testing.T) {
	for _, c := range ec.Curves() {
		for _, tables := range []bool{false, true} {
			for _, n := range []int{1, 2, 3, 16} {
				items := batchFixture(t, c, n, tables)
				for i, ok := range VerifyBatch(items) {
					if !ok {
						t.Fatalf("%s tables=%v n=%d: item %d rejected", c.Name, tables, n, i)
					}
				}
			}
		}
	}
}

// TestVerifyBatchMatchesVerify is the acceptance gate: for every item
// — valid, corrupted, malformed, or degenerate — VerifyBatch's verdict
// must equal VerifyDigest's, in particular at batch size one.
func TestVerifyBatchMatchesVerify(t *testing.T) {
	c := ec.P256()
	items := batchFixture(t, c, 6, true)

	// Corrupt item 1's digest, item 2's r, item 3's s.
	items[1].Digest = append([]byte(nil), items[1].Digest...)
	items[1].Digest[0] ^= 0xff
	items[2].Sig.R = new(big.Int).Add(items[2].Sig.R, big.NewInt(1))
	items[3].Sig.S = new(big.Int).Sub(c.N, big.NewInt(1)) // in range, wrong

	// Item 4: swap in a key the signature was not made under.
	items[4].Key = items[5].Key

	// Append malformed items that must fail fast without contaminating
	// the batch.
	valid := batchFixture(t, c, 1, false)[0]
	items = append(items,
		BatchItem{Key: nil, Digest: valid.Digest, Sig: valid.Sig},
		BatchItem{Key: valid.Key, Digest: valid.Digest, Sig: Signature{}},
		BatchItem{Key: valid.Key, Digest: valid.Digest,
			Sig: Signature{R: big.NewInt(0), S: valid.Sig.S}},
		BatchItem{Key: valid.Key, Digest: valid.Digest,
			Sig: Signature{R: valid.Sig.R, S: new(big.Int).Set(c.N)}},
		BatchItem{Key: &PublicKey{Curve: c, Q: ec.Point{}}, Digest: valid.Digest, Sig: valid.Sig},
		BatchItem{Key: &PublicKey{Curve: c, Q: ec.Point{X: big.NewInt(1), Y: big.NewInt(1)}},
			Digest: valid.Digest, Sig: valid.Sig},
		valid,
	)

	got := VerifyBatch(items)
	for i, it := range items {
		var want bool
		if it.Key != nil {
			want = it.Key.VerifyDigest(it.Digest, it.Sig)
		}
		if got[i] != want {
			t.Fatalf("item %d: VerifyBatch = %v, VerifyDigest = %v", i, got[i], want)
		}
	}

	// Batch of one — for every single item.
	for i, it := range items {
		single := VerifyBatch(items[i : i+1])
		var want bool
		if it.Key != nil {
			want = it.Key.VerifyDigest(it.Digest, it.Sig)
		}
		if single[0] != want {
			t.Fatalf("item %d alone: VerifyBatch = %v, VerifyDigest = %v", i, single[0], want)
		}
	}
}

// TestVerifyBatchMixedCurves: one batch spanning all three curves
// still produces per-item VerifyDigest verdicts.
func TestVerifyBatchMixedCurves(t *testing.T) {
	var items []BatchItem
	for _, c := range ec.Curves() {
		items = append(items, batchFixture(t, c, 3, c == ec.P224())...)
	}
	// Corrupt one per curve.
	for _, i := range []int{0, 4, 8} {
		items[i].Digest = append([]byte(nil), items[i].Digest...)
		items[i].Digest[3] ^= 0x55
	}
	got := VerifyBatch(items)
	for i, it := range items {
		want := it.Key.VerifyDigest(it.Digest, it.Sig)
		if got[i] != want {
			t.Fatalf("mixed item %d: VerifyBatch = %v, VerifyDigest = %v", i, got[i], want)
		}
	}
}

func TestVerifyBatchEmpty(t *testing.T) {
	if got := VerifyBatch(nil); len(got) != 0 {
		t.Fatalf("VerifyBatch(nil) = %v", got)
	}
	if got := VerifyBatch([]BatchItem{}); len(got) != 0 {
		t.Fatalf("VerifyBatch(empty) = %v", got)
	}
}

func TestBatchModInverse(t *testing.T) {
	n := ec.P256().N
	xs := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(12345),
		new(big.Int).Sub(n, big.NewInt(1))}
	for i, w := range batchModInverse(xs, n) {
		want := new(big.Int).ModInverse(xs[i], n)
		if w.Cmp(want) != 0 {
			t.Fatalf("batchModInverse[%d] = %v, want %v", i, w, want)
		}
	}
	if got := batchModInverse(nil, n); len(got) != 0 {
		t.Fatalf("batchModInverse(nil) = %v", got)
	}
}

// verifyBatchAllocBudget and verifyBatch1AllocBudget are the per-item
// heap-allocation ceilings of table-backed P-256 batches of sixteen
// items and of one (the size core's wave batcher produces when nothing
// else is in flight), enforced by CI next to the ScalarMult gate. The
// fixed-limb backend keeps the point arithmetic allocation-free; what
// remains is big.Int boundary work (scalars, digests, coordinate
// conversion), which must stay O(1) per item. Measured: 30.3 and 50
// on amd64, 30.4 and 52 on 386.
const (
	verifyBatchAllocBudget  = 32
	verifyBatch1AllocBudget = 54
)

func TestVerifyBatchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget needs steady-state measurement")
	}
	if !ec.UsesFPBackend() {
		t.Skip("built with -tags ec_purebig: the math/big oracle allocates freely by design")
	}
	if raceEnabled {
		t.Skip("built with -race: sync.Pool drops math/big's scratch at random, so counts vary")
	}
	for _, tc := range []struct {
		n      int
		budget float64
	}{{1, verifyBatch1AllocBudget}, {16, verifyBatchAllocBudget}} {
		items := batchFixture(t, ec.P256(), tc.n, true)
		VerifyBatch(items) // warm comb/base tables outside the measurement
		avg := testing.AllocsPerRun(10, func() {
			res := VerifyBatch(items)
			if !res[0] {
				t.Fatal("batch rejected a valid item")
			}
		})
		perItem := avg / float64(tc.n)
		t.Logf("VerifyBatch(%d): %.1f allocs/run, %.2f allocs/item (budget %v)", tc.n, avg, perItem, tc.budget)
		if perItem > tc.budget {
			t.Errorf("VerifyBatch(%d) allocates %.2f/item, budget %v", tc.n, perItem, tc.budget)
		}
	}
}

// BenchmarkVerifyBatch and BenchmarkVerifySequential record the
// batch-vs-N×Verify trajectory entry at wave sizes 1, 4 and 16.
func BenchmarkVerifyBatch(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		items := batchFixture(b, ec.P256(), n, true)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := VerifyBatch(items); !res[0] {
					b.Fatal("rejected")
				}
			}
		})
	}
}

func BenchmarkVerifySequential(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		items := batchFixture(b, ec.P256(), n, true)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range items {
					if !items[j].Key.VerifyDigest(items[j].Digest, items[j].Sig) {
						b.Fatal("rejected")
					}
				}
			}
		})
	}
}
