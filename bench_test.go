// Package repro's root bench harness: one benchmark per table and
// figure of the paper's evaluation, plus two ablation benches: the
// STS pipelining levels of equations (5)–(8) and the wNAF scalar
// multiplication against the schoolbook ladder.
//
// The testing.B timings measure the real cryptography on the host;
// each experiment bench additionally reports the paper-comparable
// quantity (modelled device milliseconds, wire bytes, ...) as custom
// metrics, so `go test -bench=. -benchmem` regenerates every
// evaluation artifact in one run.
package repro

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/detrand"
	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/ecqv"
	"repro/internal/fleet"
	"repro/internal/group"
	"repro/internal/hwmodel"
	"repro/internal/kdf"
	"repro/internal/prototype"
	"repro/internal/security"
	"repro/internal/session"
)

func timeUnix(sec int64) time.Time { return time.Unix(sec, 0) }

var (
	benchOnce    sync.Once
	benchModel   *hwmodel.Model
	benchAlice   *core.Party
	benchBob     *core.Party
	benchInitErr error
)

func benchSetup(b *testing.B) (*hwmodel.Model, *core.Party, *core.Party) {
	b.Helper()
	benchOnce.Do(func() {
		benchModel, benchInitErr = hwmodel.New()
		if benchInitErr != nil {
			return
		}
		var net *core.Network
		net, benchInitErr = core.NewNetwork(ec.P256(), detrand.NewReader(7))
		if benchInitErr != nil {
			return
		}
		benchAlice, benchBob, benchInitErr = net.Pair("alice", "bob")
	})
	if benchInitErr != nil {
		b.Fatal(benchInitErr)
	}
	return benchModel, benchAlice, benchBob
}

// BenchmarkTable1_Protocols regenerates Table I: each sub-benchmark
// runs one KD protocol's full cryptography on the host and reports the
// modelled per-device times as metrics (ms on the paper's hardware).
func BenchmarkTable1_Protocols(b *testing.B) {
	model, alice, bob := benchSetup(b)
	for _, p := range core.Protocols() {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(alice, bob); err != nil {
					b.Fatal(err)
				}
			}
			for _, dev := range model.Devices() {
				ms, err := model.ProtocolMS(p, dev, dev)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(ms, dev.Name+"_ms")
			}
		})
	}
}

// BenchmarkFig3_STSOperations regenerates Figure 3: the four STS
// operations measured individually (host time) with the modelled
// STM32F767 milliseconds as a metric.
func BenchmarkFig3_STSOperations(b *testing.B) {
	model, alice, bob := benchSetup(b)
	dev, err := model.Device("STM32F767")
	if err != nil {
		b.Fatal(err)
	}
	trace, err := model.ReferenceTrace("STS")
	if err != nil {
		b.Fatal(err)
	}
	phaseMS := model.PhaseMS(trace, dev)

	curve := alice.Curve
	qBob, err := ecqv.ExtractPublicKey(bob.Cert, alice.CAPub)
	if err != nil {
		b.Fatal(err)
	}
	signKey, err := ecdsa.NewPrivateKey(curve, alice.Priv)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 128)
	sig, err := signKey.Sign(msg)
	if err != nil {
		b.Fatal(err)
	}
	rng := detrand.NewReader(11)

	b.Run("Op1_request_XG", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k, err := curve.RandomScalar(rng)
			if err != nil {
				b.Fatal(err)
			}
			_ = curve.ScalarBaseMult(k)
		}
		b.ReportMetric(phaseMS[core.RoleA][core.PhaseOp1], "STM32F767_ms")
	})
	b.Run("Op2_pubkey_premaster", func(b *testing.B) {
		b.ReportAllocs()
		x, _ := curve.RandomScalar(rng)
		for i := 0; i < b.N; i++ {
			q, err := ecqv.ExtractPublicKey(bob.Cert, alice.CAPub)
			if err != nil {
				b.Fatal(err)
			}
			_ = curve.ScalarMult(q, x)
		}
		b.ReportMetric(phaseMS[core.RoleA][core.PhaseOp2], "STM32F767_ms")
	})
	b.Run("Op3_sign_encrypt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := signKey.Sign(msg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(phaseMS[core.RoleA][core.PhaseOp3], "STM32F767_ms")
	})
	b.Run("Op4_decrypt_verify", func(b *testing.B) {
		b.ReportAllocs()
		pub := &ecdsa.PublicKey{Curve: curve, Q: signKey.Q}
		for i := 0; i < b.N; i++ {
			if !pub.Verify(msg, sig) {
				b.Fatal("verify failed")
			}
		}
		b.ReportMetric(phaseMS[core.RoleA][core.PhaseOp4], "STM32F767_ms")
	})
	_ = qBob
}

// BenchmarkFig4_TotalTimes regenerates Figure 4 (total processing time
// per protocol on the STM32F767) as metrics on a single host run each.
func BenchmarkFig4_TotalTimes(b *testing.B) {
	model, alice, bob := benchSetup(b)
	dev, err := model.Device("STM32F767")
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range core.Protocols() {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(alice, bob); err != nil {
					b.Fatal(err)
				}
			}
			ms, err := model.ProtocolMS(p, dev, dev)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(ms, "STM32F767_ms")
		})
	}
}

// BenchmarkTable2_Overhead regenerates Table II: protocol handshakes
// with the transmitted byte and step counts as metrics.
func BenchmarkTable2_Overhead(b *testing.B) {
	_, alice, bob := benchSetup(b)
	for _, p := range core.Protocols() {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var res *core.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = p.Run(alice, bob)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.TotalBytes()), "wire_bytes")
			b.ReportMetric(float64(res.Steps()), "steps")
		})
	}
}

// BenchmarkFig7_Prototype regenerates Figure 7: the full BMS ↔ EVCC
// prototype session (real crypto + simulated CAN-FD) for STS and
// S-ECDSA, reporting the modelled totals.
func BenchmarkFig7_Prototype(b *testing.B) {
	model, _, _ := benchSetup(b)
	for _, p := range []core.Protocol{core.NewSTS(core.OptNone), core.NewSECDSA(false)} {
		b.Run(p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var tl *prototype.Timeline
			var err error
			for i := 0; i < b.N; i++ {
				tl, err = prototype.Run(p, model, "S32K144")
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tl.Total.Seconds()*1000, "S32K144_total_ms")
			b.ReportMetric(float64(tl.Wire.Microseconds())/1000, "wire_ms")
		})
	}
}

// BenchmarkTable3_SecurityAnalysis runs the full attack suite of the
// security evaluation (Table III) once per iteration.
func BenchmarkTable3_SecurityAnalysis(b *testing.B) {
	an := security.NewAnalyzer(detrand.NewReader(13))
	for i := 0; i < b.N; i++ {
		if _, err := an.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizationAblation quantifies equations (5), (7), (8):
// the modelled saving of each pipelining level.
func BenchmarkOptimizationAblation(b *testing.B) {
	model, _, _ := benchSetup(b)
	dev, err := model.Device("STM32F767")
	if err != nil {
		b.Fatal(err)
	}
	trace, err := model.ReferenceTrace("STS")
	if err != nil {
		b.Fatal(err)
	}
	var seq, opt1, opt2 float64
	for i := 0; i < b.N; i++ {
		seq = model.SequentialMS(trace, dev, dev)
		opt1 = model.OptimizedMS(trace, dev, dev, hwmodel.OverlapSet(core.OptI))
		opt2 = model.OptimizedMS(trace, dev, dev, hwmodel.OverlapSet(core.OptII))
	}
	b.ReportMetric(seq, "sequential_ms")
	b.ReportMetric(seq-opt1, "optI_saving_ms")
	b.ReportMetric(seq-opt2, "optII_saving_ms")
}

// BenchmarkScalarMultAblation compares the wNAF scalar multiplication
// against the schoolbook ladder.
func BenchmarkScalarMultAblation(b *testing.B) {
	curve := ec.P256()
	rng := detrand.NewReader(17)
	k, err := curve.RandomScalar(rng)
	if err != nil {
		b.Fatal(err)
	}
	p := curve.Generator()

	b.Run("wNAF", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = curve.ScalarMult(p, k)
		}
	})
	b.Run("double-and-add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = curve.ScalarMultNaive(p, k)
		}
	})
	b.Run("base-table", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = curve.ScalarBaseMult(k)
		}
	})
}

// BenchmarkECQVLifecycle prices the certificate-derivation stage:
// request, issuance, reconstruction, extraction.
func BenchmarkECQVLifecycle(b *testing.B) {
	rng := detrand.NewReader(19)
	curve := ec.P256()
	ca, err := ecqv.NewCA(curve, ecqv.NewID("ca"), rng)
	if err != nil {
		b.Fatal(err)
	}
	params := ecqv.IssueParams{
		ValidFrom: timeUnix(1700000000),
		ValidTo:   timeUnix(1700086400),
		KeyUsage:  ecqv.UsageKeyAgreement | ecqv.UsageSignature,
	}

	b.Run("issue", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req, _, err := ecqv.NewRequest(curve, ecqv.NewID("dev"), rng)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ca.Issue(req, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reconstruct", func(b *testing.B) {
		b.ReportAllocs()
		req, sec, _ := ecqv.NewRequest(curve, ecqv.NewID("dev"), rng)
		resp, err := ca.Issue(req, params)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ecqv.ReconstructPrivateKey(sec, resp, ca.PublicKey()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("extract-pubkey", func(b *testing.B) {
		b.ReportAllocs()
		req, _, _ := ecqv.NewRequest(curve, ecqv.NewID("dev"), rng)
		resp, err := ca.Issue(req, params)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ecqv.ExtractPublicKey(resp.Cert, ca.PublicKey()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLiveHandshake runs the message-driven STS engine end to
// end (state machines + wire codecs, no network).
func BenchmarkLiveHandshake(b *testing.B) {
	_, alice, bob := benchSetup(b)
	for _, opt := range []core.STSOptimization{core.OptNone, core.OptII} {
		b.Run(opt.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				init, err := core.NewInitiator(alice, opt)
				if err != nil {
					b.Fatal(err)
				}
				resp, err := core.NewResponder(bob, opt)
				if err != nil {
					b.Fatal(err)
				}
				msg, err := init.Start()
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 8; j++ {
					reply, _, err := resp.Handle(msg)
					if err != nil {
						b.Fatal(err)
					}
					if reply == nil {
						break
					}
					next, done, err := init.Handle(reply)
					if err != nil {
						b.Fatal(err)
					}
					if done {
						break
					}
					msg = next
				}
				if _, err := init.SessionKey(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionRecords prices the post-KD record layer.
func BenchmarkSessionRecords(b *testing.B) {
	keyBlock := make([]byte, 48)
	for i := range keyBlock {
		keyBlock[i] = byte(i)
	}
	for _, size := range []int{16, 64, 512} {
		b.Run(fmt.Sprintf("seal-open-%dB", size), func(b *testing.B) {
			b.ReportAllocs()
			a, peer, err := session.NewPair(keyBlock, session.Policy{})
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := a.Seal(payload)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := peer.Open(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupRekey prices a full group key rotation (pairwise STS
// handshake + distribution) for growing group sizes.
func BenchmarkGroupRekey(b *testing.B) {
	net, err := core.NewNetwork(ec.P256(), detrand.NewReader(31))
	if err != nil {
		b.Fatal(err)
	}
	leaderParty, err := net.Provision("gw")
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{2, 8} {
		b.Run(fmt.Sprintf("members-%d", size), func(b *testing.B) {
			b.ReportAllocs()
			leader, err := group.NewLeader(leaderParty, core.OptII)
			if err != nil {
				b.Fatal(err)
			}
			parties := make([]*core.Party, size)
			for i := range parties {
				parties[i], err = net.Provision(fmt.Sprintf("m%d-%d", size, i))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := leader.Add(parties[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Rotate by removing and re-admitting one member:
				// one pairwise handshake + full redistribution.
				if _, err := leader.Remove(parties[0].ID); err != nil {
					b.Fatal(err)
				}
				if _, err := leader.Add(parties[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstablishAll prices bringing a whole fleet online through
// the sharded Manager's worker pool: 16 concurrent STS handshakes per
// iteration, swept over worker counts. Throughput (handshakes/s) should
// scale with workers up to GOMAXPROCS — the lock-striping claim.
func BenchmarkEstablishAll(b *testing.B) {
	const fleetSize = 16
	net, err := core.NewNetwork(ec.P256(), nil)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 1+fleetSize)
	names[0] = "gateway"
	for i := 1; i < len(names); i++ {
		names[i] = fmt.Sprintf("fleet-%02d", i)
	}
	parties, err := net.ProvisionBatch(names, 0)
	if err != nil {
		b.Fatal(err)
	}
	gw, peers := parties[0], parties[1:]

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			m, err := fleet.NewManager(gw, core.OptNone, session.DefaultPolicy)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := errors.Join(m.EstablishAll(peers, workers)...); err != nil {
					b.Fatalf("failures: %v", err)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(fleetSize*b.N)/secs, "handshakes/s")
			}
		})
	}
}

// BenchmarkEnrollBatch prices batch certificate issuance: 32 devices
// enrolled per iteration (request, ECQV issuance, reconstruction)
// through the provisioning worker pool, swept over worker counts.
func BenchmarkEnrollBatch(b *testing.B) {
	const batch = 32
	net, err := core.NewNetwork(ec.P256(), nil)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, batch)
	for i := range names {
		names[i] = fmt.Sprintf("enroll-%02d", i)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := net.ProvisionBatch(names, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(batch*b.N)/secs, "enrollments/s")
			}
		})
	}
}

// BenchmarkPrimitives prices the symmetric substrate.
func BenchmarkPrimitives(b *testing.B) {
	b.Run("HKDF-SessionKeys", func(b *testing.B) {
		b.ReportAllocs()
		pm := make([]byte, 32)
		for i := 0; i < b.N; i++ {
			if _, _, err := kdf.SessionKeys(pm, []byte("salt")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ECDSA-sign", func(b *testing.B) {
		b.ReportAllocs()
		rng := detrand.NewReader(23)
		key, err := ecdsa.GenerateKey(ec.P256(), rng)
		if err != nil {
			b.Fatal(err)
		}
		msg := make([]byte, 128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := key.Sign(msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ECDSA-verify", func(b *testing.B) {
		b.ReportAllocs()
		rng := detrand.NewReader(29)
		key, err := ecdsa.GenerateKey(ec.P256(), rng)
		if err != nil {
			b.Fatal(err)
		}
		msg := make([]byte, 128)
		sig, _ := key.Sign(msg)
		pub := key.Public()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !pub.Verify(msg, sig) {
				b.Fatal("verify failed")
			}
		}
	})
}
