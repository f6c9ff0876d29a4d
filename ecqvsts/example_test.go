package ecqvsts_test

import (
	"fmt"
	"math/rand"

	"repro/ecqvsts"
)

// exampleRand makes the examples deterministic.
type exampleRand struct{ r *rand.Rand }

func (d *exampleRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

// Example shows the complete lifecycle: enrollment, dynamic session
// establishment and protected messaging.
func Example() {
	authority, err := ecqvsts.NewAuthority(ecqvsts.WithRand(&exampleRand{r: rand.New(rand.NewSource(1))}))
	if err != nil {
		panic(err)
	}
	alice, _ := authority.Enroll("alice")
	bob, _ := authority.Enroll("bob")

	s, err := ecqvsts.Establish(ecqvsts.STS, alice, bob)
	if err != nil {
		panic(err)
	}
	fmt.Printf("certificate: %d bytes\n", len(alice.Certificate()))
	fmt.Printf("handshake: %d steps, %d bytes, forward secrecy %v\n", s.Steps, s.Bytes, s.Dynamic)

	ct, _ := s.Seal([]byte("hello bob"), nil)
	pt, _ := s.Open(ct, nil)
	fmt.Printf("message: %s\n", pt)
	// Output:
	// certificate: 101 bytes
	// handshake: 4 steps, 491 bytes, forward secrecy true
	// message: hello bob
}

// ExampleSession_Channels shows the record layer with a rekey policy.
func ExampleSession_Channels() {
	authority, _ := ecqvsts.NewAuthority(ecqvsts.WithRand(&exampleRand{r: rand.New(rand.NewSource(2))}))
	a, _ := authority.Enroll("ecu-a")
	b, _ := authority.Enroll("ecu-b")
	s, _ := ecqvsts.Establish(ecqvsts.STSOptII, a, b)

	sender, receiver, _ := s.Channels(ecqvsts.Policy{MaxRecords: 100})
	rec, _ := sender.Seal([]byte("telemetry frame"))
	pt, _ := receiver.Open(rec)
	fmt.Printf("%s\n", pt)

	// Replays are rejected by the record layer.
	if _, err := receiver.Open(rec); err != nil {
		fmt.Println("replay rejected")
	}
	// Output:
	// telemetry frame
	// replay rejected
}

// ExampleEstimateTime previews Table I timings without hardware.
func ExampleEstimateTime() {
	sts, _ := ecqvsts.EstimateTime(ecqvsts.STS, "STM32F767")
	secdsa, _ := ecqvsts.EstimateTime(ecqvsts.SECDSA, "STM32F767")
	fmt.Printf("STS costs %.0f%% more than static ECDSA on the STM32F767\n",
		(sts.Seconds()/secdsa.Seconds()-1)*100)
	// Output:
	// STS costs 23% more than static ECDSA on the STM32F767
}
