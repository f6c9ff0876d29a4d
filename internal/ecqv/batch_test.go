package ecqv

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/conc"
	"repro/internal/ec"
)

// issueMany issues n certificates under one new CA on curve, from the
// deterministic stream seed, and returns the CA with each subject's
// request, secret and response.
func issueMany(t testing.TB, curve *ec.Curve, seed int64, n int) (*CA, []Request, []*RequestSecret, []*Response) {
	t.Helper()
	rng := newDetRand(seed)
	ca, err := NewCA(curve, NewID("batch-ca"), rng)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, n)
	secs := make([]*RequestSecret, n)
	resps := make([]*Response, n)
	for i := range reqs {
		if reqs[i], secs[i], err = NewRequest(curve, NewID(fmt.Sprintf("dev-%03d", i)), rng); err != nil {
			t.Fatal(err)
		}
		if resps[i], err = ca.Issue(reqs[i], defaultParams()); err != nil {
			t.Fatal(err)
		}
	}
	return ca, reqs, secs, resps
}

// requireSingleVerdicts fails unless ReconstructBatch gives every item
// exactly what ReconstructPrivateKey gives it alone: the same key, or
// an error with the same text.
func requireSingleVerdicts(t testing.TB, secs []*RequestSecret, resps []*Response, caPub ec.Point, keys []*big.Int, errs []error) {
	t.Helper()
	for i := range secs {
		d, _, err := ReconstructPrivateKey(secs[i], resps[i], caPub)
		switch {
		case (err == nil) != (errs[i] == nil):
			t.Fatalf("item %d: batch error %v, single check %v", i, errs[i], err)
		case err != nil && err.Error() != errs[i].Error():
			t.Fatalf("item %d: batch error %q, single check %q", i, errs[i], err)
		case err == nil && (keys[i] == nil || keys[i].Cmp(d) != 0):
			t.Fatalf("item %d: batch key %v, single check %v", i, keys[i], d)
		case err != nil && keys[i] != nil:
			t.Fatalf("item %d: rejected with %v but given a key", i, err)
		}
	}
}

// TestIssueConcurrentSerials runs 32 issuances on 8 workers: every
// certificate gets its own serial, the counter ends past all of them,
// and every subject reconstructs its key.
func TestIssueConcurrentSerials(t *testing.T) {
	curve := ec.P256()
	rng := newDetRand(71)
	ca, err := NewCA(curve, NewID("batch-ca"), rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	reqs := make([]Request, n)
	secs := make([]*RequestSecret, n)
	for i := range reqs {
		reqs[i], secs[i], err = NewRequest(curve, NewID(fmt.Sprintf("dev-%02d", i)), rng)
		if err != nil {
			t.Fatal(err)
		}
	}
	resps := make([]*Response, n)
	errs := make([]error, n)
	conc.ForEach(n, 8, func(i int) { resps[i], errs[i] = ca.Issue(reqs[i], defaultParams()) })
	serials := map[uint64]bool{}
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if resp.Cert.SubjectID != reqs[i].SubjectID {
			t.Errorf("response %d: subject %s, want %s", i, resp.Cert.SubjectID, reqs[i].SubjectID)
		}
		if serials[resp.Cert.Serial] {
			t.Errorf("serial %d reused", resp.Cert.Serial)
		}
		serials[resp.Cert.Serial] = true
	}
	if got := ca.NextSerial(); got != 1+n {
		t.Errorf("next serial %d, want %d", got, 1+n)
	}
	keys, rerrs := ReconstructBatch(secs, resps, ca.PublicKey())
	requireSingleVerdicts(t, secs, resps, ca.PublicKey(), keys, rerrs)
	for i, err := range rerrs {
		if err != nil {
			t.Errorf("response %d: %v", i, err)
		}
	}
}

// TestIssueConcurrentBadRequest issues a request at infinity beside a
// valid one, concurrently: the bad request fails alone and the good
// one's subject still reconstructs.
func TestIssueConcurrentBadRequest(t *testing.T) {
	curve := ec.P256()
	rng := newDetRand(72)
	ca, err := NewCA(curve, NewID("batch-ca"), rng)
	if err != nil {
		t.Fatal(err)
	}
	good, sec, err := NewRequest(curve, NewID("good"), rng)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{good, {SubjectID: NewID("bad")}}
	resps := make([]*Response, 2)
	errs := make([]error, 2)
	conc.ForEach(2, 2, func(i int) { resps[i], errs[i] = ca.Issue(reqs[i], defaultParams()) })
	if errs[1] == nil || resps[1] != nil {
		t.Fatalf("request at infinity issued: %v, %v", resps[1], errs[1])
	}
	if errs[0] != nil {
		t.Fatalf("valid request failed: %v", errs[0])
	}
	if _, errs := ReconstructBatch([]*RequestSecret{sec}, resps[:1], ca.PublicKey()); errs[0] != nil {
		t.Errorf("valid response: %v", errs[0])
	}
}

func TestReconstructBatchEmpty(t *testing.T) {
	ca, err := NewCA(ec.P256(), NewID("batch-ca"), newDetRand(73))
	if err != nil {
		t.Fatal(err)
	}
	keys, errs := ReconstructBatch(nil, nil, ca.PublicKey())
	if len(keys) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch: %d keys, %d errors", len(keys), len(errs))
	}
}

// TestReconstructBatchMatchesSingle reconstructs valid batches of 1,
// 2, 64, 65 and 130 items (a chunk boundary on either side) on every
// curve: each key is the one ReconstructPrivateKey gives.
func TestReconstructBatchMatchesSingle(t *testing.T) {
	for _, curve := range ec.Curves() {
		ca, _, allSecs, allResps := issueMany(t, curve, 74, 130)
		for _, n := range []int{1, 2, 64, 65, 130} {
			secs, resps := allSecs[:n], allResps[:n]
			keys, errs := ReconstructBatch(secs, resps, ca.PublicKey())
			requireSingleVerdicts(t, secs, resps, ca.PublicKey(), keys, errs)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s, %d items: item %d: %v", curve.Name, n, i, err)
				}
			}
		}
	}
}

// TestReconstructBatchCancellingErrors shifts r_i by +t and r_j by −t.
// Their keys are off by t·G and −t·G, which cancel in an unweighted
// sum of the equations, so a check with every z_i = 1 would accept
// both; the batch must reject each of them, alone.
func TestReconstructBatchCancellingErrors(t *testing.T) {
	curve := ec.P256()
	ca, _, secs, resps := issueMany(t, curve, 75, 8)
	tShift := big.NewInt(12345)
	for _, pair := range [][2]int{{0, 5}, {3, 7}} {
		bad := append([]*Response(nil), resps...)
		i, j := pair[0], pair[1]
		bad[i] = &Response{Cert: resps[i].Cert, R: new(big.Int).Add(resps[i].R, tShift)}
		bad[j] = &Response{Cert: resps[j].Cert, R: new(big.Int).Sub(resps[j].R, tShift)}
		keys, errs := ReconstructBatch(secs, bad, ca.PublicKey())
		for k := range secs {
			if rejected := errs[k] != nil; rejected != (k == i || k == j) {
				t.Fatalf("shifts at %d and %d: item %d rejected %v (%v)", i, j, k, rejected, errs[k])
			}
		}
		requireSingleVerdicts(t, secs, bad, ca.PublicKey(), keys, errs)
	}
}

// TestReconstructBatchAttribution puts one corruption at a time at
// positions 0, 63 and 64 of a 65-item batch — the first chunk's first
// and last items and the second chunk's only one. Each fails exactly
// its own item, with ReconstructPrivateKey's error text.
func TestReconstructBatchAttribution(t *testing.T) {
	curve := ec.P256()
	ca, reqs, secs, resps := issueMany(t, curve, 76, 65)
	other, err := NewCA(curve, NewID("other-ca"), newDetRand(77))
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, p224Resps := issueMany(t, ec.P224(), 78, 1)
	corruptions := []struct {
		name string
		fn   func(i int) *Response
	}{
		{"changed r", func(i int) *Response {
			r := new(big.Int).Add(resps[i].R, big.NewInt(1))
			return &Response{Cert: resps[i].Cert, R: r.Mod(r, curve.N)}
		}},
		{"r ≥ n", func(i int) *Response {
			return &Response{Cert: resps[i].Cert, R: new(big.Int).Set(curve.N)}
		}},
		{"re-issued P_U", func(i int) *Response {
			cert := *resps[i].Cert
			cert.PubRecon = curve.Add(cert.PubRecon, curve.Generator())
			return &Response{Cert: &cert, R: resps[i].R}
		}},
		{"off-curve P_U", func(i int) *Response {
			cert := *resps[i].Cert
			cert.PubRecon = ec.Point{X: cert.PubRecon.X, Y: new(big.Int).Add(cert.PubRecon.Y, big.NewInt(1))}
			return &Response{Cert: &cert, R: resps[i].R}
		}},
		{"another CA key", func(i int) *Response {
			resp, err := other.Issue(reqs[i], defaultParams())
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{"certificate on another curve", func(i int) *Response {
			return &Response{Cert: p224Resps[0].Cert, R: resps[i].R}
		}},
	}
	// The untouched items must keep the keys the single check gives
	// them in a clean batch.
	clean, cleanErrs := ReconstructBatch(secs, resps, ca.PublicKey())
	requireSingleVerdicts(t, secs, resps, ca.PublicKey(), clean, cleanErrs)
	for _, c := range corruptions {
		for _, pos := range []int{0, 63, 64} {
			bad := append([]*Response(nil), resps...)
			bad[pos] = c.fn(pos)
			_, _, want := ReconstructPrivateKey(secs[pos], bad[pos], ca.PublicKey())
			if want == nil {
				t.Fatalf("%s at %d: the single check accepts it", c.name, pos)
			}
			keys, errs := ReconstructBatch(secs, bad, ca.PublicKey())
			for k := range secs {
				switch {
				case k == pos && (errs[k] == nil || errs[k].Error() != want.Error() || keys[k] != nil):
					t.Fatalf("%s at %d: batch gives key %v, error %v; single check %q", c.name, pos, keys[k], errs[k], want)
				case k != pos && (errs[k] != nil || keys[k].Cmp(clean[k]) != 0):
					t.Fatalf("%s at %d: item %d given key %v, error %v", c.name, pos, k, keys[k], errs[k])
				}
			}
		}
	}
}

// reconstructBatchAllocBudget is the heap-allocation ceiling per item
// of a 64-item ReconstructBatch on P-256, enforced by CI beside the
// verification gates: the measurement (10.3 allocations per item;
// 10.4 on GOARCH=386) plus 10%. What allocates is big.Int and encoding
// work per item — the certificate encoding, e, d and z_i·e_i — and,
// once per chunk, the transcript, the chain's point tables and the two
// affine conversions. The on-curve checks and the chain itself
// allocate nothing per item.
const reconstructBatchAllocBudget = 11.3

func TestReconstructBatchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget needs steady-state measurement")
	}
	if !ec.UsesFPBackend() {
		t.Skip("built with -tags ec_purebig: the math/big oracle allocates freely by design")
	}
	if raceEnabled {
		t.Skip("built with -race: sync.Pool drops math/big's scratch at random, so counts vary")
	}
	ca, _, secs, resps := issueMany(t, ec.P256(), 79, batchSize)
	caPub := ca.PublicKey()
	run := func() {
		if _, errs := ReconstructBatch(secs, resps, caPub); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}
	run()
	got := testing.AllocsPerRun(10, run) / batchSize
	t.Logf("ReconstructBatch(%d): %.2f allocs/item (budget %.1f)", batchSize, got, reconstructBatchAllocBudget)
	if got > reconstructBatchAllocBudget {
		t.Errorf("ReconstructBatch(%d): %.2f allocs/item, budget %.1f", batchSize, got, reconstructBatchAllocBudget)
	}
}
