package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"
	"time"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ec/fp"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
	"repro/internal/hwmodel"
	"repro/internal/session"
)

// ledgerBatches is how many timed batches each ledger entry runs; the
// entry reports the median batch's per-call time.
const ledgerBatches = 7

// batch times n calls of fn and returns the time per call in
// nanoseconds.
func batch(n int, fn func() error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(n), nil
}

// perCall returns the median over ledgerBatches batches of n calls of
// fn of the time per call in nanoseconds.
func perCall(n int, fn func() error) (float64, error) {
	samples := make([]float64, 0, ledgerBatches)
	for b := 0; b < ledgerBatches; b++ {
		ns, err := batch(n, fn)
		if err != nil {
			return 0, err
		}
		samples = append(samples, ns)
	}
	return median(samples), nil
}

// ledgerEntry is one public function timed by the ledger.
type ledgerEntry struct {
	name  string
	unit  float64 // nanoseconds per reported unit
	calls int     // per batch
	fn    func() error
}

// ledger times the layer chain fp → ec → ecdsa/ecqv → session → core
// on P-256, so every workload's traced run carries the same per-layer
// costs next to its own spans. It also reports the
// host cost of STS over static S-ECDSA key derivation, the paper's
// headline trade, printing the hardware model's S32K144 ratio beside
// it on stderr.
func ledger(seed uint64, stderr io.Writer) (map[string]float64, error) {
	curve := ec.P256()
	rng := detrand.NewReader(detrand.DeriveSeed(seed, []byte("ledger")))
	scalar := func() (*big.Int, error) { return curve.RandomScalar(rng) }

	f, err := fp.New(curve.P)
	if err != nil {
		return nil, err
	}
	k1, err := scalar()
	if err != nil {
		return nil, err
	}
	k2, err := scalar()
	if err != nil {
		return nil, err
	}
	var x, y, z fp.Element
	f.FromBig(&x, k1)
	f.FromBig(&y, k2)
	z = x

	priv, err := ecdsa.GenerateKey(curve, rng)
	if err != nil {
		return nil, err
	}
	msg := []byte("ledger message")
	sig, err := priv.Sign(msg)
	if err != nil {
		return nil, err
	}
	pub := priv.Public()
	cached := priv.Public().Precompute()
	q := pub.Q
	items := make([]ecdsa.BatchItem, 16)
	for i := range items {
		k, err := ecdsa.GenerateKey(curve, rng)
		if err != nil {
			return nil, err
		}
		m := []byte(fmt.Sprintf("batch message %d", i))
		s, err := k.Sign(m)
		if err != nil {
			return nil, err
		}
		digest := sha256.Sum256(m)
		items[i] = ecdsa.BatchItem{Key: k.Public(), Digest: digest[:], Sig: s}
	}
	verify := func(k *ecdsa.PublicKey) func() error {
		return func() error { return checkf(k.Verify(msg, sig), "ledger signature did not verify") }
	}

	ca, err := ecqv.NewCA(curve, ecqv.NewID("ledger-ca"), rng)
	if err != nil {
		return nil, err
	}
	params := ecqv.IssueParams{
		ValidFrom: time.Unix(1700000000, 0),
		ValidTo:   time.Unix(1700086400, 0),
		KeyUsage:  ecqv.UsageKeyAgreement | ecqv.UsageSignature,
	}
	req, sec, err := ecqv.NewRequest(curve, ecqv.NewID("ledger-device"), rng)
	if err != nil {
		return nil, err
	}
	resp, err := ca.Issue(req, params)
	if err != nil {
		return nil, err
	}

	keyBlock := make([]byte, 48)
	if _, err := io.ReadFull(rng, keyBlock); err != nil {
		return nil, err
	}
	sealer, opener, err := session.NewPair(keyBlock, session.Policy{})
	if err != nil {
		return nil, err
	}
	payload := make([]byte, payloadSize)

	net, err := core.NewNetwork(curve, rng)
	if err != nil {
		return nil, err
	}
	a, err := net.Provision("ledger-a")
	if err != nil {
		return nil, err
	}
	b, err := net.Provision("ledger-b")
	if err != nil {
		return nil, err
	}
	run := func(p core.Protocol) func() error {
		return func() error { _, err := p.Run(a, b); return err }
	}

	entries := []ledgerEntry{
		{"fp.mul_ns", 1, 200000, func() error { f.Mul(&z, &z, &y); return nil }},
		{"fp.sqr_ns", 1, 200000, func() error { f.Sqr(&z, &z); return nil }},
		{"fp.inv_ns", 1, 2000, func() error { f.Inv(&z, &x); return nil }},
		{"ec.scalar_mult_us", 1e3, 100, func() error { curve.ScalarMult(q, k1); return nil }},
		{"ec.scalar_base_mult_us", 1e3, 200, func() error { curve.ScalarBaseMult(k1); return nil }},
		{"ec.combined_mult_us", 1e3, 100, func() error { curve.CombinedMult(q, k1, k2); return nil }},
		{"ecdsa.sign_us", 1e3, 100, func() error { _, err := priv.Sign(msg); return err }},
		{"ecdsa.verify_us", 1e3, 100, verify(pub)},
		{"ecdsa.verify_cached_us", 1e3, 100, verify(cached)},
		{"ecdsa.verify_batch16_item_us", 16 * 1e3, 10, func() error {
			for _, ok := range ecdsa.VerifyBatch(items) {
				if !ok {
					return checkf(false, "ledger batch signature did not verify")
				}
			}
			return nil
		}},
		{"ecqv.issue_us", 1e3, 100, func() error { _, err := ca.Issue(req, params); return err }},
		{"ecqv.reconstruct_us", 1e3, 100, func() error {
			_, _, err := ecqv.ReconstructPrivateKey(sec, resp, ca.PublicKey())
			return err
		}},
		{"ecqv.extract_us", 1e3, 100, func() error {
			_, err := ecqv.ExtractPublicKey(resp.Cert, ca.PublicKey())
			return err
		}},
		{"session.seal_open_us", 1e3, 20000, func() error {
			rec, err := sealer.Seal(payload)
			if err != nil {
				return err
			}
			_, err = opener.Open(rec)
			return err
		}},
	}
	out := make(map[string]float64, len(entries)+1)
	for _, e := range entries {
		d, err := perCall(e.calls, e.fn)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		out[e.name] = d / e.unit
	}

	// The two protocols alternate batch by batch and the ratio is the
	// median of the pairs' ratios, so a change in host speed during
	// the ledger moves both sides of each ratio alike.
	var ratios []float64
	for b := 0; b < ledgerBatches; b++ {
		sts, err := batch(20, run(core.NewSTS(core.OptNone)))
		if err != nil {
			return nil, err
		}
		secdsa, err := batch(20, run(core.NewSECDSA(false)))
		if err != nil {
			return nil, err
		}
		ratios = append(ratios, ratio(sts, secdsa))
	}
	out["core.sts_over_secdsa"] = median(ratios)
	if model, err := paperRatio(); err == nil {
		fmt.Fprintf(stderr, "ledger: STS / S-ECDSA host %.3f, hardware model S32K144 %.3f\n", out["core.sts_over_secdsa"], model)
	}
	return out, nil
}

// paperRatio is the hardware model's STS over S-ECDSA time on the
// paper's S32K144.
func paperRatio() (float64, error) {
	m, err := hwmodel.New()
	if err != nil {
		return 0, err
	}
	dev, err := m.Device("S32K144")
	if err != nil {
		return 0, err
	}
	sts, err := m.ProtocolMS(core.NewSTS(core.OptNone), dev, dev)
	if err != nil {
		return 0, err
	}
	secdsa, err := m.ProtocolMS(core.NewSECDSA(false), dev, dev)
	if err != nil {
		return 0, err
	}
	return sts / secdsa, nil
}
