// Vehicle group keying: a gateway ECU keys a group of in-vehicle
// controllers (the Püllen et al. direction surveyed in the paper's
// related work) using pairwise STS-ECQV sessions for key distribution.
// The gateway brings the whole fleet online concurrently —
// batch-provisioned certificates, then fleet.Manager.EstablishAll
// driving every pairwise STS handshake through a worker pool — and
// demonstrates epoch rekeying on membership change: an evicted ECU
// cannot read post-eviction traffic.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ec"
	"repro/internal/ecqv"
	"repro/internal/fleet"
	"repro/internal/group"
	"repro/internal/session"
)

func main() {
	log.SetFlags(0)

	net, err := core.NewNetwork(ec.P256(), nil)
	if err != nil {
		log.Fatal(err)
	}

	// Provision the gateway and every ECU in one batch: certificate
	// requests, ECQV issuance and key reconstruction fan out over a
	// worker pool.
	names := []string{"gateway", "bms", "evcc", "dashboard"}
	parties, err := net.ProvisionBatch(names, 0)
	if err != nil {
		log.Fatal(err)
	}
	gatewayParty, ecus := parties[0], parties[1:]

	// Establish pairwise record sessions to the whole fleet
	// concurrently; each ECU gets its own STS handshake, no two of
	// which contend on the sharded manager.
	mgr, err := fleet.NewManager(gatewayParty, core.OptII, session.DefaultPolicy)
	if err != nil {
		log.Fatal(err)
	}
	if err := errors.Join(mgr.EstablishAll(ecus, 0)...); err != nil {
		log.Fatalf("fleet establishment failed: %v", err)
	}
	for _, ecu := range ecus {
		rec, err := mgr.Seal(ecu.ID, []byte("pre-admission ping"))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := mgr.Open(ecu.ID, rec); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("fleet online: %d pairwise sessions established concurrently\n\n", len(mgr.Peers()))

	leader, err := group.NewLeader(gatewayParty, core.OptII)
	if err != nil {
		log.Fatal(err)
	}

	// Admit the three ECUs; each admission runs a pairwise STS
	// handshake and rotates the group epoch.
	members := map[ecqv.ID]*group.Member{}
	for _, p := range ecus {
		dist, err := leader.Add(p)
		if err != nil {
			log.Fatal(err)
		}
		pw, err := leader.PairwiseKey(p.ID)
		if err != nil {
			log.Fatal(err)
		}
		m, err := group.Join(p, gatewayParty.ID, pw)
		if err != nil {
			log.Fatal(err)
		}
		members[p.ID] = m
		for id, msg := range dist {
			if mm, ok := members[id]; ok {
				if err := mm.Install(msg); err != nil {
					log.Fatal(err)
				}
			}
		}
		fmt.Printf("admitted %-10s -> group epoch %d, %d members\n", p.ID, leader.Epoch(), leader.Size())
	}

	// Broadcast under the group key.
	lk, err := leader.Keys()
	if err != nil {
		log.Fatal(err)
	}
	dg, err := lk.Seal(gatewayParty.ID, 1, []byte("ignition on, all ECUs report"))
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range ecus {
		mk, _ := members[p.ID].Keys()
		sender, payload, err := mk.Open(dg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s received from %s: %q\n", p.ID, sender, payload)
	}

	// Evict the dashboard ECU (e.g. aftermarket unit flagged by the
	// intrusion detection system) and rotate.
	evicted := ecqv.NewID("dashboard")
	staleKeys, _ := members[evicted].Keys()
	dist, err := leader.Remove(evicted)
	if err != nil {
		log.Fatal(err)
	}
	for id, msg := range dist {
		if err := members[id].Install(msg); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\nevicted %s -> group epoch %d, %d members\n", evicted, leader.Epoch(), leader.Size())

	lk2, _ := leader.Keys()
	secret, err := lk2.Seal(gatewayParty.ID, 2, []byte("new charging schedule"))
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := staleKeys.Open(secret); err != nil {
		fmt.Println("evicted ECU cannot read post-eviction traffic — epoch isolation holds")
	} else {
		log.Fatal("unexpected: stale keys decrypted new traffic")
	}
	for _, p := range ecus {
		if p.ID == evicted {
			continue
		}
		mk, _ := members[p.ID].Keys()
		if _, _, err := mk.Open(secret); err != nil {
			log.Fatalf("%s cannot read: %v", p.ID, err)
		}
	}
	fmt.Println("remaining members read the new epoch normally")
}
