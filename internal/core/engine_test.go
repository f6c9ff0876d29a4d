package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ec"
)

// driveHandshake runs the two state machines to completion with
// Exchange, returning both key blocks and the exchanged messages.
func driveHandshake(t *testing.T, init *Initiator, resp *Responder) ([]byte, []byte, [][]byte) {
	t.Helper()
	var wire [][]byte
	err := Exchange(init, resp, func(msg []byte, _ bool) ([]byte, error) {
		wire = append(wire, msg)
		return msg, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	keyA, err := init.SessionKey()
	if err != nil {
		t.Fatalf("initiator key: %v", err)
	}
	keyB, err := resp.SessionKey()
	if err != nil {
		t.Fatalf("responder key: %v", err)
	}
	return keyA, keyB, wire
}

// TestExchange pins the one driver's contract: the carry sees A1, B1,
// A2, B2 in order, toward B for A1 and A2, and in the bytes STS.Run
// records; carry errors come back unchanged, and engine errors come
// back wrapped with the role.
func TestExchange(t *testing.T) {
	engines := func(t *testing.T, opt STSOptimization) (*Initiator, *Responder) {
		a, b := newPair(t, 20)
		init, err := NewInitiator(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := NewResponder(b, opt)
		if err != nil {
			t.Fatal(err)
		}
		return init, resp
	}
	for _, opt := range []STSOptimization{OptNone, OptI, OptII} {
		t.Run(opt.String(), func(t *testing.T) {
			init, resp := engines(t, opt)
			keyA, keyB, wire := driveHandshake(t, init, resp)
			if !bytes.Equal(keyA, keyB) {
				t.Fatal("engine key mismatch")
			}
			// An identically seeded pair through STS.Run records the
			// same bytes and keys.
			a, b := newPair(t, 20)
			res, err := NewSTS(opt).Run(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.KeyA, keyA) {
				t.Error("Exchange and STS.Run derived different keys")
			}
			codes := []byte{wireA1, wireB1, wireA2, wireB2}
			if len(wire) != len(codes) || len(res.Transcript) != len(codes) {
				t.Fatalf("%d carried, %d recorded messages, want 4", len(wire), len(res.Transcript))
			}
			for i, msg := range wire {
				rec, err := EncodeSTSMessage(res.Transcript[i])
				if msg[0] != codes[i] || err != nil || !bytes.Equal(rec, msg) {
					t.Errorf("message %d: code %#x, differs from STS.Run's transcript (%v)", i, msg[0], err)
				}
			}

			errCarry := errors.New("carrier down")
			for k := 1; k <= 4; k++ {
				init, resp := engines(t, opt)
				n := 0
				err := Exchange(init, resp, func(msg []byte, toB bool) ([]byte, error) {
					if n++; toB != (n%2 == 1) {
						t.Errorf("message %d carried with toB=%v", n, toB)
					}
					if n == k {
						return nil, errCarry
					}
					return msg, nil
				})
				if err != errCarry { // unchanged, not wrapped
					t.Errorf("carry failing on message %d: got %v", k, err)
				}
				if _, err := init.SessionKey(); err == nil {
					t.Errorf("carry failing on message %d: initiator holds a key", k)
				}
			}

			init, resp = engines(t, opt)
			err = Exchange(init, resp, func(msg []byte, _ bool) ([]byte, error) {
				if msg[0] == wireB1 {
					msg = append([]byte(nil), msg...)
					msg[1+16+50] ^= 0x01 // inside Cert_B
				}
				return msg, nil
			})
			if !errors.Is(err, ErrHandshakeAuth) || !strings.HasPrefix(err.Error(), "sts: A: ") {
				t.Errorf("tampered Cert_B: got %v, want sts: A: wrapping ErrHandshakeAuth", err)
			}
		})
	}
}

func TestEngineHandshake(t *testing.T) {
	for _, opt := range []STSOptimization{OptNone, OptI, OptII} {
		t.Run(opt.String(), func(t *testing.T) {
			a, b := newPair(t, 21)
			init, err := NewInitiator(a, opt)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := NewResponder(b, opt)
			if err != nil {
				t.Fatal(err)
			}
			keyA, keyB, wire := driveHandshake(t, init, resp)
			if !bytes.Equal(keyA, keyB) {
				t.Fatal("engine key mismatch")
			}
			if len(wire) != 4 {
				t.Fatalf("%d wire messages, want 4", len(wire))
			}
			// Total bytes = Table II total + 4 step-code bytes.
			total := 0
			for _, m := range wire {
				total += len(m) - 1
			}
			if total != 491 {
				t.Errorf("engine wire total %d B, want 491", total)
			}
			// Engine trace covers all four phases.
			for _, tr := range []*Trace{init.Trace(), resp.Trace()} {
				agg := tr.Aggregate()
				found := 0
				for _, ph := range Phases() {
					for _, role := range []PartyRole{RoleA, RoleB} {
						if len(agg.PhaseCounts(role, ph)) > 0 {
							found++
						}
					}
				}
				if found < 4 {
					t.Errorf("engine trace covers %d phase slots", found)
				}
			}
		})
	}
}

func TestEngineKeysFreshPerHandshake(t *testing.T) {
	a, b := newPair(t, 23)
	run := func() []byte {
		init, _ := NewInitiator(a, OptNone)
		resp, _ := NewResponder(b, OptNone)
		keyA, _, _ := driveHandshake(t, init, resp)
		return keyA
	}
	if bytes.Equal(run(), run()) {
		t.Fatal("engine reused session keys")
	}
}

func TestEngineRejectsWrongState(t *testing.T) {
	a, b := newPair(t, 24)
	init, _ := NewInitiator(a, OptNone)
	resp, _ := NewResponder(b, OptNone)

	// Start twice.
	if _, err := init.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := init.Start(); !errors.Is(err, ErrHandshakeState) {
		t.Errorf("second Start: %v", err)
	}
	// Responder fed an A2 before A1.
	a2 := []byte{wireA2}
	a2 = append(a2, make([]byte, 101+64)...)
	if _, _, err := resp.Handle(a2); !errors.Is(err, ErrHandshakeState) {
		t.Errorf("premature A2: %v", err)
	}
	// Key before completion.
	if _, err := init.SessionKey(); err == nil {
		t.Error("key available before completion")
	}
}

func TestEngineRejectsTamperedMessages(t *testing.T) {
	a, b := newPair(t, 25)
	init, _ := NewInitiator(a, OptNone)
	resp, _ := NewResponder(b, OptNone)

	a1, err := init.Start()
	if err != nil {
		t.Fatal(err)
	}
	b1, _, err := resp.Handle(a1)
	if err != nil {
		t.Fatal(err)
	}

	// Tamper with each region of B1: ID, Cert, XG, Resp.
	for _, idx := range []int{1, 20, 1 + 16 + 50, 1 + 16 + 101 + 10, len(b1) - 5} {
		mod := append([]byte(nil), b1...)
		mod[idx] ^= 0x01
		freshInit, _ := NewInitiator(a, OptNone)
		if _, err := freshInit.Start(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := freshInit.Handle(mod); err == nil {
			t.Errorf("tampered B1 at byte %d accepted", idx)
		}
	}
}

func TestEngineRejectsImpostor(t *testing.T) {
	// Responder certified by a different CA.
	net1, _ := NewNetwork(ec.P256(), newDetRand(26))
	net2, _ := NewNetwork(ec.P256(), newDetRand(27))
	a, _ := net1.Provision("alice")
	mallory, _ := net2.Provision("bob")

	init, _ := NewInitiator(a, OptNone)
	resp, _ := NewResponder(mallory, OptNone)
	a1, _ := init.Start()
	b1, _, err := resp.Handle(a1)
	if err != nil {
		t.Fatal(err) // responder cannot know yet
	}
	if _, _, err := init.Handle(b1); !errors.Is(err, ErrHandshakeAuth) {
		t.Errorf("impostor B1: %v", err)
	}
}

func TestEngineNotProvisioned(t *testing.T) {
	if _, err := NewInitiator(&Party{}, OptNone); err == nil {
		t.Error("unprovisioned initiator accepted")
	}
	if _, err := NewResponder(nil, OptNone); err == nil {
		t.Error("nil responder accepted")
	}
}

// TestQuickEngineNeverPanics fuzzes the state machines with random
// bytes: they must return errors, never panic or complete.
func TestQuickEngineNeverPanics(t *testing.T) {
	a, b := newPair(t, 28)
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		init, _ := NewInitiator(a, OptNone)
		init.Start()
		if _, done, err := init.Handle(data); done && err == nil {
			return false // random bytes must not complete a handshake
		}
		resp, _ := NewResponder(b, OptNone)
		if _, done, err := resp.Handle(data); done && err == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	a, b := newPair(t, 29)
	res, err := NewSTS(OptNone).Run(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range res.Transcript {
		enc, err := EncodeSTSMessage(msg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeSTSMessage(a.Curve, OptNone, enc)
		if err != nil {
			t.Fatalf("%s: %v", msg.Label, err)
		}
		if dec.Label != msg.Label || dec.Len() != msg.Len() {
			t.Errorf("%s: round trip mismatch", msg.Label)
		}
		for j, f := range msg.Field {
			if !bytes.Equal(dec.Field[j].Bytes, f.Bytes) {
				t.Errorf("%s field %s: bytes differ", msg.Label, f.Name)
			}
		}
	}
	// Malformed inputs.
	if _, err := DecodeSTSMessage(a.Curve, OptNone, nil); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := DecodeSTSMessage(a.Curve, OptNone, []byte{0x77}); err == nil {
		t.Error("unknown step code accepted")
	}
	if _, err := DecodeSTSMessage(a.Curve, OptNone, []byte{wireA1, 1, 2}); err == nil {
		t.Error("truncated message accepted")
	}
	if _, err := EncodeSTSMessage(WireMessage{Label: "Z9"}); err == nil {
		t.Error("unknown label encoded")
	}
}
