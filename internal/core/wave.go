package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/ecdsa"
)

// waveVerifier batches concurrently in-flight ECDSA verifications into
// ecdsa.VerifyBatch calls by group commit: the first request to arrive
// becomes the leader and drains the queue in rounds, so every
// verification that lands while a round is running joins the next one
// and shares its scalar inversion. During an EstablishAll wave with
// peers the party has seen before (a first sight verifies straight
// from the certificate and never comes here) all of its worker
// goroutines verify through the same KeyCache, which is exactly when
// the queue is non-trivial; a serial caller degrades to a batch of
// one, whose result VerifyBatch guarantees is identical to a plain
// Verify. There are no timers and no cross-goroutine waits other than
// followers waiting for the leader's round: batching never delays a
// verification that has no company.
type waveVerifier struct {
	mu      sync.Mutex
	leading bool
	queue   []*waveReq

	batches atomic.Uint64 // VerifyBatch rounds executed
	items   atomic.Uint64 // verifications served through those rounds
}

type waveReq struct {
	item ecdsa.BatchItem
	done chan bool // buffered: the leader never blocks delivering
}

// verify checks sig over digest under pub, batching with whatever else
// is in flight on this verifier.
func (w *waveVerifier) verify(pub *ecdsa.PublicKey, digest []byte, sig ecdsa.Signature) bool {
	req := &waveReq{
		item: ecdsa.BatchItem{Key: pub, Digest: digest, Sig: sig},
		done: make(chan bool, 1),
	}
	w.mu.Lock()
	w.queue = append(w.queue, req)
	if w.leading {
		// A leader is draining; it will pick this request up in its next
		// round (it re-checks the queue before stepping down).
		w.mu.Unlock()
		return <-req.done
	}
	w.leading = true
	w.mu.Unlock()

	for {
		w.mu.Lock()
		batch := w.queue
		w.queue = nil
		if len(batch) == 0 {
			w.leading = false
			w.mu.Unlock()
			break
		}
		w.mu.Unlock()

		items := make([]ecdsa.BatchItem, len(batch))
		for i, r := range batch {
			items[i] = r.item
		}
		res := ecdsa.VerifyBatch(items)
		w.batches.Add(1)
		w.items.Add(uint64(len(batch)))
		for i, r := range batch {
			r.done <- res[i]
		}
	}
	return <-req.done
}
