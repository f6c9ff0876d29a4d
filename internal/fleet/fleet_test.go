package fleet

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/session"
)

func newDetRand(seed int64) io.Reader { return detrand.NewReader(uint64(seed)) }

func provision(t *testing.T, seed int64, names ...string) []*core.Party {
	t.Helper()
	net, err := core.NewNetwork(ec.P256(), newDetRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*core.Party, len(names))
	for i, n := range names {
		out[i], err = net.Provision(n)
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestManagerMultiPeer(t *testing.T) {
	parties := provision(t, 1, "gateway", "node-a", "node-b", "node-c")
	m, err := NewManager(parties[0], core.OptNone, session.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parties[1:] {
		if err := m.Connect(p); err != nil {
			t.Fatalf("connect %s: %v", p.ID, err)
		}
	}
	if len(m.Peers()) != 3 {
		t.Fatalf("%d peers", len(m.Peers()))
	}

	// Records route to the correct peer and only that peer.
	for _, p := range parties[1:] {
		payload := []byte("to " + p.ID.String())
		rec, err := m.Seal(p.ID, payload)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := m.PeerChannel(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ch.Open(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload corrupted")
		}
	}
	// Cross-peer confusion must fail.
	rec, _ := m.Seal(parties[1].ID, []byte("x"))
	chOther, _ := m.PeerChannel(parties[2].ID)
	if _, err := chOther.Open(rec); err == nil {
		t.Error("record for node-a opened on node-b's channel")
	}

	if m.Stats().Handshakes != 3 {
		t.Errorf("handshakes = %d", m.Stats().Handshakes)
	}
}

func TestManagerAutoRekey(t *testing.T) {
	parties := provision(t, 2, "gw", "sensor")
	m, err := NewManager(parties[0], core.OptNone, session.Policy{MaxRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Connect(parties[1]); err != nil {
		t.Fatal(err)
	}
	id := parties[1].ID

	// Records 0 and 1 fit the policy; record 2 forces a transparent
	// rekey (fresh handshake) and still succeeds.
	for i := 0; i < 5; i++ {
		rec, err := m.Seal(id, []byte{byte(i)})
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		ch, err := m.PeerChannel(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ch.Open(rec)
		if err != nil {
			t.Fatalf("record %d open: %v", i, err)
		}
		if !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("record %d corrupted", i)
		}
	}
	st := m.Stats()
	if st.Rekeys < 1 {
		t.Errorf("no rekeys recorded: %+v", st)
	}
	if st.Handshakes != 1+st.Rekeys {
		t.Errorf("handshakes %d, rekeys %d", st.Handshakes, st.Rekeys)
	}
	if st.Records != 5 {
		t.Errorf("records = %d", st.Records)
	}
	// Every rekey re-validates the same static peer: after the first
	// handshake, its extraction and verification table come from the
	// local device's key cache.
	if st.KeyCache.Hits == 0 {
		t.Errorf("rekeys never hit the per-peer key cache: %+v", st.KeyCache)
	}
}

func TestManagerErrors(t *testing.T) {
	parties := provision(t, 3, "gw", "peer")
	if _, err := NewManager(nil, core.OptNone, session.DefaultPolicy); err == nil {
		t.Error("nil self accepted")
	}
	if _, err := NewManager(&core.Party{}, core.OptNone, session.DefaultPolicy); err == nil {
		t.Error("unprovisioned self accepted")
	}
	m, _ := NewManager(parties[0], core.OptNone, session.DefaultPolicy)
	if err := m.Connect(nil); err == nil {
		t.Error("nil peer accepted")
	}
	if _, err := m.Seal(ecqv.NewID("ghost"), []byte("x")); err == nil {
		t.Error("unknown peer accepted")
	}
	if _, err := m.PeerChannel(ecqv.NewID("ghost")); err == nil {
		t.Error("unknown peer channel returned")
	}

	// Disconnect removes the session.
	if err := m.Connect(parties[1]); err != nil {
		t.Fatal(err)
	}
	m.Disconnect(parties[1].ID)
	if _, err := m.Seal(parties[1].ID, []byte("x")); err == nil {
		t.Error("disconnected peer still usable")
	}
}

func TestManagerFailedConnectLeavesNoState(t *testing.T) {
	parties := provision(t, 5, "gw", "peer")
	m, _ := NewManager(parties[0], core.OptNone, session.DefaultPolicy)

	// A peer enrolled under a different CA fails the handshake; the
	// failure must not create a peer entry.
	foreign := provision(t, 6, "gw2", "intruder")[1]
	if err := m.Connect(foreign); err == nil {
		t.Fatal("foreign-CA peer connected")
	}
	if n := len(m.Peers()); n != 0 {
		t.Fatalf("%d peers after failed connect", n)
	}
	if _, err := m.Seal(foreign.ID, []byte("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("failed connect left a usable entry: %v", err)
	}

	// A failed re-Connect must leave the existing session fully
	// intact: same keys, same party.
	if err := m.Connect(parties[1]); err != nil {
		t.Fatal(err)
	}
	rec, err := m.Seal(parties[1].ID, []byte("before"))
	if err != nil {
		t.Fatal(err)
	}
	// Impostor with the real peer's identity but a foreign CA's
	// credentials: fails inside the handshake, after validation.
	imp := foreign.Clone()
	imp.ID = parties[1].ID
	if err := m.Connect(imp); err == nil {
		t.Fatal("foreign-CA reconnect accepted")
	}
	got, err := m.Open(parties[1].ID, rec)
	if err != nil || !bytes.Equal(got, []byte("before")) {
		t.Fatalf("failed reconnect disturbed the session: %q, %v", got, err)
	}
}

func TestManagerReconnectFreshKeys(t *testing.T) {
	parties := provision(t, 4, "gw", "peer")
	m, _ := NewManager(parties[0], core.OptII, session.DefaultPolicy)
	if err := m.Connect(parties[1]); err != nil {
		t.Fatal(err)
	}
	rec1, _ := m.Seal(parties[1].ID, []byte("before"))

	// Explicit reconnect = new certificate-independent session.
	if err := m.Connect(parties[1]); err != nil {
		t.Fatal(err)
	}
	ch, _ := m.PeerChannel(parties[1].ID)
	if _, err := ch.Open(rec1); err == nil {
		t.Error("pre-reconnect record opened with post-reconnect key")
	}
}
