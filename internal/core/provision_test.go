package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/ec"
)

func TestProvisionBatch(t *testing.T) {
	net, err := NewNetwork(ec.P256(), newDetRand(51))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("ecu-%02d", i)
	}
	parties, err := net.ProvisionBatch(names, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parties) != len(names) {
		t.Fatalf("%d parties", len(parties))
	}
	serials := map[uint64]bool{}
	for i, p := range parties {
		if p == nil {
			t.Fatalf("party %d nil", i)
		}
		if p.ID.String() != names[i] {
			t.Errorf("party %d: ID %s, want %s", i, p.ID, names[i])
		}
		if serials[p.Cert.Serial] {
			t.Errorf("serial %d reused", p.Cert.Serial)
		}
		serials[p.Cert.Serial] = true
	}

	// Batch-provisioned parties run the paper's protocols normally.
	res, err := NewSTS(OptNone).Run(parties[0], parties[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.SessionKey(); err != nil {
		t.Fatal(err)
	}
}

func TestProvisionBatchEmpty(t *testing.T) {
	net, err := NewNetwork(ec.P256(), newDetRand(52))
	if err != nil {
		t.Fatal(err)
	}
	parties, err := net.ProvisionBatch(nil, 0)
	if err != nil || len(parties) != 0 {
		t.Fatalf("empty batch: %v, %d parties", err, len(parties))
	}
}

// provisionPin is the SHA-256 digest of what three Provision calls
// return at seed 53: each certificate's encoding, then its private
// scalar in 32 bytes, in call order. It was recorded while each
// reconstruction still ran its own unbatched check, so the batched
// check provisions the same bytes.
const provisionPin = "be42ec84c48ef327b394df7e49bf89e9130013e64291a24b62fd1ecd7581d119"

// TestProvisionPin fails when provisioning draws its randomness
// differently: a reconstruction check that drew randomness of its own,
// or a request and issuance order that changed, moves the digest.
func TestProvisionPin(t *testing.T) {
	net, err := NewNetwork(ec.P256(), newDetRand(53))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, name := range []string{"pin-a", "pin-b", "pin-c"} {
		p, err := net.Provision(name)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(p.Cert.Encode())
		h.Write(p.Priv.FillBytes(make([]byte, 32)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != provisionPin {
		t.Fatalf("provisioning digest %s, want %s", got, provisionPin)
	}
}

// TestProvisionBatchMatchesProvision requires ProvisionBatch on one
// worker to return exactly the parties that Provision gives the same
// names one at a time from the same seed, and to leave the CA at the
// same serial.
func TestProvisionBatchMatchesProvision(t *testing.T) {
	names := []string{"gateway", "ecu-00", "ecu-01", "ecu-02", "ecu-03"}
	single, err := NewNetwork(ec.P256(), newDetRand(54))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewNetwork(ec.P256(), newDetRand(54))
	if err != nil {
		t.Fatal(err)
	}
	parties, err := batch.ProvisionBatch(names, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		want, err := single.Provision(name)
		if err != nil {
			t.Fatal(err)
		}
		got := parties[i]
		if got.ID != want.ID || !got.Cert.Equal(want.Cert) || got.Priv.Cmp(want.Priv) != 0 || !got.CAPub.Equal(want.CAPub) {
			t.Fatalf("%s: ProvisionBatch gave %s with key %x, Provision %s with key %x",
				name, got.Cert.Encode(), got.Priv, want.Cert.Encode(), want.Priv)
		}
	}
	if got, want := batch.CA.NextSerial(), single.CA.NextSerial(); got != want {
		t.Fatalf("next serial %d after ProvisionBatch, %d after Provision", got, want)
	}
}
