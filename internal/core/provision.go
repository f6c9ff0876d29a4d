package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/conc"
	"repro/internal/ec"
	"repro/internal/ecqv"
)

// lockedReader serializes reads of an injected randomness source.
// Deterministic test readers are not safe for concurrent draws; wrapping
// them once at network construction makes every downstream consumer
// (provisioning, handshake ephemerals via Party.Rand) concurrency-safe.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

// lockReader wraps a non-nil reader; nil stays nil (crypto/rand is
// already safe for concurrent use).
func lockReader(r io.Reader) io.Reader {
	if r == nil {
		return nil
	}
	return &lockedReader{r: r}
}

// Network models the centralized implicit-certificate architecture of
// the paper's Figure 1: a central authority that authenticates devices
// and derives their certificates (stages 1 and 2), after which any two
// provisioned devices can establish sessions (stage 3) with the
// protocols in this package.
type Network struct {
	Curve *ec.Curve
	CA    *ecqv.CA
	rand  io.Reader

	// certValidity is the certificate-session length (e.g. one
	// vehicle power cycle).
	certValidity time.Duration
	notBefore    time.Time
}

// NewNetwork creates the central authority. A nil rng selects
// crypto/rand; an injected rng is wrapped so concurrent provisioning
// and handshakes never race on it.
func NewNetwork(curve *ec.Curve, rng io.Reader) (*Network, error) {
	rng = lockReader(rng)
	ca, err := ecqv.NewCA(curve, ecqv.NewID("central-authority"), rng)
	if err != nil {
		return nil, fmt.Errorf("core: network CA: %w", err)
	}
	return &Network{
		Curve:        curve,
		CA:           ca,
		rand:         rng,
		certValidity: 24 * time.Hour,
		notBefore:    time.Unix(1700000000, 0),
	}, nil
}

// Provision runs the full certificate-derivation stage for one device:
// request generation, CA issuance and private-key reconstruction,
// returning a session-ready Party. It is ProvisionBatch of one name.
func (n *Network) Provision(name string) (*Party, error) {
	parties, err := n.ProvisionBatch([]string{name}, 1)
	return parties[0], err
}

// ProvisionBatch runs the certificate-derivation stage for many
// devices at once. Each device's request and then its CA issuance run
// on a pool of at most parallelism workers (GOMAXPROCS when ≤ 0); with
// one worker the randomness is drawn in the order of Provision calls
// made one name at a time, so both give the same parties. The
// private-key reconstructions then end in one batched consistency
// check (ecqv.ReconstructBatch). Parties align with names; per-device
// failures are joined into the returned error while the rest of the
// batch still completes.
func (n *Network) ProvisionBatch(names []string, parallelism int) ([]*Party, error) {
	params := ecqv.IssueParams{
		ValidFrom: n.notBefore,
		ValidTo:   n.notBefore.Add(n.certValidity),
		KeyUsage:  ecqv.UsageKeyAgreement | ecqv.UsageSignature,
	}
	secs := make([]*ecqv.RequestSecret, len(names))
	resps := make([]*ecqv.Response, len(names))
	errs := make([]error, len(names))
	conc.ForEach(len(names), parallelism, func(i int) {
		req, sec, err := ecqv.NewRequest(n.Curve, ecqv.NewID(names[i]), n.rand)
		if err != nil {
			errs[i] = fmt.Errorf("core: provision %s: %w", names[i], err)
			return
		}
		resp, err := n.CA.Issue(req, params)
		if err != nil {
			errs[i] = fmt.Errorf("core: issue %s: %w", names[i], err)
			return
		}
		secs[i], resps[i] = sec, resp
	})

	keys, rerrs := ecqv.ReconstructBatch(secs, resps, n.CA.PublicKey())
	out := make([]*Party, len(names))
	for i, name := range names {
		switch {
		case errs[i] != nil:
		case rerrs[i] != nil:
			errs[i] = fmt.Errorf("core: reconstruct %s: %w", name, rerrs[i])
		default:
			out[i] = &Party{
				ID:    resps[i].Cert.SubjectID,
				Curve: n.Curve,
				Cert:  resps[i].Cert,
				Priv:  keys[i],
				CAPub: n.CA.PublicKey(),
				Rand:  n.rand,
			}
		}
	}
	return out, errors.Join(errs...)
}

// Pair provisions two devices and installs the pairwise pre-shared
// key that PORAMB requires.
func (n *Network) Pair(nameA, nameB string) (*Party, *Party, error) {
	a, err := n.Provision(nameA)
	if err != nil {
		return nil, nil, err
	}
	b, err := n.Provision(nameB)
	if err != nil {
		return nil, nil, err
	}
	rng := n.rand
	if rng == nil {
		rng = rand.Reader
	}
	psk := make([]byte, 32)
	if _, err := io.ReadFull(rng, psk); err != nil {
		return nil, nil, fmt.Errorf("core: pairwise key: %w", err)
	}
	a.PairwiseKey = append([]byte(nil), psk...)
	b.PairwiseKey = append([]byte(nil), psk...)
	return a, b, nil
}
