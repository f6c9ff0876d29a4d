package ecdsa

import "math/big"

// Batch verification. VerifyBatch shares the step that batches
// cheaply: Montgomery's trick gives every signature on one curve its
// s⁻¹ mod n from a single modular inversion. Each item then runs
// VerifyDigest's own tail (verifyInverse), so per-item results are
// exactly those of VerifyDigest — batching changes cost, never answers
// — and a batch of one is just a Verify with different plumbing.
//
// Nothing in this module calls VerifyBatch: an STS party verifies one
// signature per handshake, with VerifyDigest or VerifyImplicit. It
// stays only for the layered benchmark (bench/), whose
// ecdsa.verify_batch16_item_us row times it.

// BatchItem is one signature check: sig over a precomputed digest
// under key.
type BatchItem struct {
	Key    *PublicKey
	Digest []byte
	Sig    Signature
}

// VerifyBatch checks every item and returns one verdict per item, in
// order. Items that fail fast validation (nil or malformed key, r or s
// out of range) get false without joining the batch; the rest share
// one scalar inversion per curve as described in the package section
// above. Keys with precomputed tables use them, exactly as VerifyDigest
// does.
func VerifyBatch(items []BatchItem) []bool {
	ok := make([]bool, len(items))
	// live indexes the items that survived validation; each round of
	// the loop below takes those on one curve out of it.
	live := make([]int, 0, len(items))
	for i := range items {
		if items[i].Key.accepts(items[i].Sig) {
			live = append(live, i)
		}
	}
	group := make([]int, 0, len(live))
	ss := make([]*big.Int, 0, len(live))
	for len(live) > 0 {
		c := items[live[0]].Key.Curve
		group, ss = group[:0], ss[:0]
		rest := live[:0]
		for _, i := range live {
			if items[i].Key.Curve != c {
				rest = append(rest, i)
				continue
			}
			group = append(group, i)
			ss = append(ss, items[i].Sig.S)
		}
		live = rest
		// One inversion for the whole group: w_j = s_j⁻¹ mod n by
		// Montgomery's trick. Every s is in [1, n) with n prime, so the
		// product is invertible.
		for j, w := range batchModInverse(ss, c.N) {
			it := &items[group[j]]
			ok[group[j]] = it.Key.verifyInverse(it.Digest, it.Sig, w)
		}
	}
	return ok
}

// batchModInverse returns xs[i]⁻¹ mod n for every xs[i] via
// Montgomery's trick: one ModInverse for the whole slice plus three
// multiplications per element. Every input must be in [1, n) with n
// prime. The inputs are not modified.
func batchModInverse(xs []*big.Int, n *big.Int) []*big.Int {
	out := make([]*big.Int, len(xs))
	prefix := make([]*big.Int, len(xs)+1)
	prefix[0] = big.NewInt(1)
	for i, x := range xs {
		prefix[i+1] = new(big.Int).Mul(prefix[i], x)
		prefix[i+1].Mod(prefix[i+1], n)
	}
	inv := new(big.Int).ModInverse(prefix[len(xs)], n)
	for i := len(xs) - 1; i >= 0; i-- {
		out[i] = new(big.Int).Mul(prefix[i], inv)
		out[i].Mod(out[i], n)
		inv.Mul(inv, xs[i])
		inv.Mod(inv, n)
	}
	return out
}
