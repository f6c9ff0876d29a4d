GO ?= go

# bench-compare pipes go test through tee; pipefail makes the recipe
# fail when the test run fails rather than when tee does.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# Benchmarks compared by bench-compare: the EC hot-path suites whose
# trajectory BENCH_ec_backend.json records.
BENCH_COMPARE ?= BenchmarkScalarMultAblation|BenchmarkFig3_STSOperations|BenchmarkLiveHandshake
BENCH_COUNT ?= 5

.PHONY: build test rerun race race-parallel test-purebig test-386 bench bench-smoke bench-check bench-compare bench-batch bench-alloc bench-scenarios scenario-smoke sweep-smoke adversarial-smoke parallel-invariance fuzz-smoke examples fmt fmt-check vet lint doccheck linkcheck detlint cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages that hold or exercise process-global mutable state
# (core's SharedTableCache), every test run ten times in one process
# (used by CI): a test that passes on its first run but not on a
# repeat reads state an earlier run left behind.
rerun:
	$(GO) test -count=10 ./internal/fleet ./internal/core

# The explicit -timeout bounds the chaos stress tests (seeded
# impairment + retransmission over the 3-segment topology) under the
# race detector's ~10× slowdown; they finish in seconds, so a hang is
# a bug, not load.
race:
	$(GO) test -race -timeout 10m ./...

# The parallel sweep path alone under the race detector: concurrent
# isolated worlds with tracing enabled, nested EstablishAll
# concurrency inside each point (used by CI as a dedicated gate — the
# full `race` target covers it too, but a dedicated run keeps the
# fabric's concurrency story falsifiable on its own).
race-parallel:
	$(GO) test -race -timeout 5m -run 'TestParallelSweep' -v ./internal/scenario

# The math/big oracle backend — the differential reference for the
# fixed-limb fp backend — must stay green (used by CI).
test-purebig:
	$(GO) test -tags ec_purebig ./internal/ec/...

# The EC stack on a 32-bit target (used by CI). On 386, math/bits
# computes Mul64 and Add64 in software, so the field kernels' carry
# chains get a second code generation; the Go toolchain cross-compiles
# and runs 386 binaries on an amd64 host with nothing to download.
test-386:
	GOARCH=386 $(GO) test ./internal/ec/... ./internal/ecdsa ./internal/ecqv

bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Compile and execute every benchmark exactly once — catches bit-rotted
# benches without paying for full measurement runs (used by CI).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The layered benchmark (bench/, see bench/README.md) is its own Go
# module, so the root `go test ./...` never reaches it: vet it and run
# its tests — unit tests, the output checks and a small run of every
# workload — so a change below it that breaks its checks fails here
# (used by CI).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Old-vs-new EC backend comparison: the same hot-path benchmarks under
# the math/big oracle (-tags ec_purebig) and the fixed-limb Montgomery
# default, summarized by benchstat when installed.
bench-compare:
	$(GO) test -run='^$$' -bench='$(BENCH_COMPARE)' -benchmem -count=$(BENCH_COUNT) -tags ec_purebig . | tee bench-purebig.txt
	$(GO) test -run='^$$' -bench='$(BENCH_COMPARE)' -benchmem -count=$(BENCH_COUNT) . | tee bench-fp.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench-purebig.txt bench-fp.txt; \
	else \
		echo "benchstat not installed; compare bench-purebig.txt vs bench-fp.txt by hand"; \
	fi

# Scalar-mult ablation with allocation counts plus the hard per-op
# allocation budgets on the fp backend (used by CI; fails on regression
# into per-digit heap allocation). The field kernels (Mul, Sqr, Add,
# Sub, Dbl, Neg, Half, Inv, Sqrt) must allocate nothing at all: every
# point formula and inversion runs on them. The ScalarMult, VerifyBatch,
# VerifyDigest and VerifyImplicit gates ride together: all guard the
# same fixed-limb no-alloc contract, per op, per batched item (in
# batches of one and of 16; only the layered benchmark batches), per
# cached-key verification (every rekey's) and per first-sight
# verification straight from a certificate (even and odd u2 alike).
# The Seal+Open gate guards the record layer's
# key-once-per-session contract: keying the MAC again for every record
# (hmac.New per tag) more than doubles its allocations, and per-record
# key derivation multiplies them. The Deliver gate guards the CAN
# fabric's one-allocation broadcast and non-reallocating receive
# queues: a return to a payload copy per receiver multiplies its
# allocations several times over. The Flush gate holds an idle
# endpoint's reset, run twice per fleet handshake attempt, at zero:
# the receiver is reset in place, not rebuilt. The warm-handshake
# gate is the one above ecdsa: a whole in-memory STS rekey between
# two parties that have met twice, each verifying with one
# VerifyDigest call on its cached comb, which must also be all
# KeyCache hits, so it fails when a rekey extracts, builds a table or
# verifies from the certificate again.
bench-alloc:
	$(GO) test -run='^$$' -bench='BenchmarkScalarMultAblation' -benchtime=5x -benchmem .
	$(GO) test -run='TestFieldKernelsAllocFree' -v ./internal/ec/fp/
	$(GO) test -run='TestScalarMultAllocBudget' -v ./internal/ec/
	$(GO) test -run='TestVerifyBatchAllocBudget' -v ./internal/ecdsa/
	$(GO) test -run='TestVerifyDigestAllocBudget' -v ./internal/ecdsa/
	$(GO) test -run='TestVerifyImplicitAllocBudget' -v ./internal/ecdsa/
	$(GO) test -run='TestSealOpenAllocBudget' -v ./internal/session/
	$(GO) test -run='TestDeliverAllocBudget' -v ./internal/transport/
	$(GO) test -run='TestFlushAllocFree' -v ./internal/transport/
	$(GO) test -run='TestWarmHandshakeAllocBudget' -v ./internal/core/

# The batch-amortized pipeline benches behind BENCH_ec_backend.json's
# batch_ops trajectory: dedicated squaring vs Mul(x, x), Montgomery-
# trick BatchInv vs sequential inversions, VerifyBatch (one shared
# scalar inversion; nothing outside the layered benchmark calls it) vs
# N independent Verifies, and the shared-inversion table build.
# Summarized by benchstat when installed.
BENCH_BATCH ?= BenchmarkSqr$$|BenchmarkSqrViaMul|BenchmarkBatchInv|BenchmarkInvSequential|BenchmarkVerifyBatch|BenchmarkVerifySequential|BenchmarkMultTableBuild
bench-batch:
	$(GO) test -run='^$$' -bench='$(BENCH_BATCH)' -benchmem -count=$(BENCH_COUNT) \
		./internal/ec/... ./internal/ecdsa/ | tee bench-batch.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench-batch.txt; \
	else \
		echo "benchstat not installed; read bench-batch.txt directly"; \
	fi

# Every scenario gate in one local run. CI runs the three gates as
# separate steps instead, so each runs exactly once there.
scenario-smoke: sweep-smoke adversarial-smoke parallel-invariance

# One small degraded-bus sweep end to end — scenario engine, CLI,
# JSON writer — then the schema-drift gate on its own output (used by
# CI; finishes in seconds because all time is simulated). The second
# half is the schedule-invariance gate: a congested-gateway bring-up
# sweep at EstablishAll parallelism 4 runs twice with the same seed
# (plus the CLI's serial-reference self-check inside each run, which
# compares SHA-256 digests of the JSON) and the two JSON outputs must
# be byte-identical — the fair-queuing egress scheduler is what makes
# this combination reproducible at all.
sweep-smoke:
	$(GO) run ./cmd/scenario -name smoke -peers 4 -segments 3 \
		-sweep drop:0,0.05,0.10 -attempts 10 \
		-json scenario-smoke.json -csv scenario-smoke.csv
	$(GO) run ./cmd/scenario -validate scenario-smoke.json
	$(GO) run ./cmd/scenario -name congested-smoke -workload bringup -peers 4 -segments 3 \
		-parallelism 4 -egress-rate 800 -egress-queue 64 -sweep drop:0,0.02 \
		-check-invariance -json congested-smoke-a.json >/dev/null
	$(GO) run ./cmd/scenario -name congested-smoke -workload bringup -peers 4 -segments 3 \
		-parallelism 4 -egress-rate 800 -egress-queue 64 -sweep drop:0,0.02 \
		-check-invariance -json congested-smoke-b.json >/dev/null
	cmp congested-smoke-a.json congested-smoke-b.json
	$(GO) run ./cmd/scenario -validate congested-smoke-a.json

# The adversarial-smoke gate: a replay storm and a babbling-idiot
# attack, each run at -workers 1 and -workers 8, all three output
# formats byte-compared (the attack-workload schedule-invariance
# contract) and schema-validated — which also enforces zero accepted
# replays, so a freshness-binding regression fails CI here before it
# could ever land in a committed curve. Finishes in seconds: all time
# is simulated.
ADV_REPLAY := -workload attack -adversary replay -peers 4 -segments 3 -seed 42
ADV_BABBLE := -workload attack -adversary babble -peers 4 -segments 3 -seed 42 \
	-egress-rate 800 -egress-queue 64 -sweep attack:0,2000,8000
adversarial-smoke:
	$(GO) run ./cmd/scenario -name adv-replay $(ADV_REPLAY) -workers 1 \
		-json adv-replay-w1.json -csv adv-replay-w1.csv -trace adv-replay-w1.trace >/dev/null
	$(GO) run ./cmd/scenario -name adv-replay $(ADV_REPLAY) -workers 8 \
		-json adv-replay-w8.json -csv adv-replay-w8.csv -trace adv-replay-w8.trace >/dev/null
	cmp adv-replay-w1.json adv-replay-w8.json
	cmp adv-replay-w1.csv adv-replay-w8.csv
	cmp adv-replay-w1.trace adv-replay-w8.trace
	$(GO) run ./cmd/scenario -validate adv-replay-w8.json
	$(GO) run ./cmd/scenario -name adv-babble $(ADV_BABBLE) -workers 1 \
		-json adv-babble-w1.json -csv adv-babble-w1.csv -trace adv-babble-w1.trace >/dev/null
	$(GO) run ./cmd/scenario -name adv-babble $(ADV_BABBLE) -workers 8 \
		-json adv-babble-w8.json -csv adv-babble-w8.csv -trace adv-babble-w8.trace >/dev/null
	cmp adv-babble-w1.json adv-babble-w8.json
	cmp adv-babble-w1.csv adv-babble-w8.csv
	cmp adv-babble-w1.trace adv-babble-w8.trace
	$(GO) run ./cmd/scenario -validate adv-babble-w8.json

# The parallel-invariance gate: the same 8-point impaired sweep runs
# at -workers 1 and -workers 8 (each also emitting its full fault/
# recovery trace), and the JSON, CSV and trace outputs must be
# byte-identical — sweep-point fan-out may only change wall clock,
# never a measurement. A shared-capacity egress sweep rides the same
# gate: points never share a port, so even the flow-coupled scheduler
# is worker-invariant. So does a 160-point range sweep: every run
# streams its points to the outputs in index order, and the engine
# fails any run whose completed-point backlog exceeds
# workers + ReorderSlack, so at -workers 8 this leg also holds the
# streaming memory bound. Finishes in seconds: all time is simulated.
PARINV := -peers 4 -segments 3 -seed 42 -corrupt 0.01 \
	-sweep drop:0,0.01,0.02,0.03,0.04,0.05,0.06,0.08
PARINV_GRID := -peers 3 -segments 2 -seed 42 -corrupt 0.005 \
	-sweep drop:0..0.05/160
parallel-invariance:
	$(GO) run ./cmd/scenario -name par-inv $(PARINV) -workers 1 \
		-json par-inv-w1.json -csv par-inv-w1.csv -trace par-inv-w1.trace >/dev/null
	$(GO) run ./cmd/scenario -name par-inv $(PARINV) -workers 8 \
		-json par-inv-w8.json -csv par-inv-w8.csv -trace par-inv-w8.trace >/dev/null
	cmp par-inv-w1.json par-inv-w8.json
	cmp par-inv-w1.csv par-inv-w8.csv
	cmp par-inv-w1.trace par-inv-w8.trace
	$(GO) run ./cmd/scenario -name par-inv-shared -workload bringup -peers 4 -segments 3 \
		-egress-rate 400 -egress-queue 64 -egress-shared -sweep drop:0,0.02 \
		-workers 1 -json par-inv-shared-w1.json >/dev/null
	$(GO) run ./cmd/scenario -name par-inv-shared -workload bringup -peers 4 -segments 3 \
		-egress-rate 400 -egress-queue 64 -egress-shared -sweep drop:0,0.02 \
		-workers 8 -json par-inv-shared-w8.json >/dev/null
	cmp par-inv-shared-w1.json par-inv-shared-w8.json
	$(GO) run ./cmd/scenario -name par-inv-grid $(PARINV_GRID) -workers 1 \
		-json par-inv-grid-w1.json -csv par-inv-grid-w1.csv -trace par-inv-grid-w1.trace >/dev/null
	$(GO) run ./cmd/scenario -name par-inv-grid $(PARINV_GRID) -workers 8 \
		-json par-inv-grid-w8.json -csv par-inv-grid-w8.csv -trace par-inv-grid-w8.trace >/dev/null
	cmp par-inv-grid-w1.json par-inv-grid-w8.json
	cmp par-inv-grid-w1.csv par-inv-grid-w8.csv
	cmp par-inv-grid-w1.trace par-inv-grid-w8.trace
	$(GO) run ./cmd/scenario -validate par-inv-w8.json
	$(GO) run ./cmd/scenario -validate par-inv-grid-w8.json

# Regenerate the committed BENCH_scenarios.json trajectory (the
# canonical degraded-bus curves; simulated time, host-independent).
# The last two entries are the heavy-traffic workloads: a 2048-point
# impairment grid and a 64-peer bring-up, which -stream records as
# aggregate stream blocks (points: null — the full point lists are
# exactly what is too big to commit) with the reorder-depth and heap
# high-water evidence in wall_clock.
bench-scenarios:
	$(GO) run ./cmd/scenario -name latency-vs-loss -peers 8 \
		-sweep drop:0,0.02,0.04,0.06,0.08,0.10 -bench BENCH_scenarios.json >/dev/null
	$(GO) run ./cmd/scenario -name bringup-under-churn -workload churn -peers 8 \
		-drop 0.03 -corrupt 0.005 -churn-rounds 3 -bench BENCH_scenarios.json >/dev/null
	$(GO) run ./cmd/scenario -name congested-gateway-bringup -workload bringup -peers 8 \
		-egress-rate 600 -egress-queue 256 -bench BENCH_scenarios.json >/dev/null
	$(GO) run ./cmd/scenario -name congested-gateway-bringup-8way -workload bringup -peers 8 \
		-egress-rate 600 -egress-queue 256 -parallelism 8 -check-invariance \
		-bench BENCH_scenarios.json >/dev/null
	$(GO) run ./cmd/scenario -name parallel-sweep-8pt $(PARINV) -workers 8 \
		-check-invariance -bench BENCH_scenarios.json >/dev/null
	$(GO) run ./cmd/scenario -name shared-gateway-bringup -workload bringup -peers 8 \
		-egress-rate 600 -egress-queue 256 -egress-shared \
		-bench BENCH_scenarios.json >/dev/null
	$(GO) run ./cmd/scenario -name replay-storm -workload attack -adversary replay \
		-peers 8 -bench BENCH_scenarios.json >/dev/null
	$(GO) run ./cmd/scenario -name babbling-idiot -workload attack -adversary babble \
		-peers 8 -egress-rate 800 -egress-queue 64 \
		-sweep attack:0,1000,2000,4000,8000,16000 -bench BENCH_scenarios.json >/dev/null
	$(GO) run ./cmd/scenario -name partition-heal -workload attack -adversary partition \
		-peers 8 -sweep attack:0.001,0.9,1.8,3.5,6 \
		-bench BENCH_scenarios.json >/dev/null
	$(GO) run ./cmd/scenario -name day-in-the-life -workload day-in-the-life \
		-adversary inject,replay -attack-intensity 0.5 -peers 8 -drop 0.01 \
		-bench BENCH_scenarios.json >/dev/null
	$(GO) run ./cmd/scenario -name impairment-grid-2k -peers 2 -segments 2 \
		-corrupt 0.003 -sweep drop:0..0.06/2048 -workers 0 -stream \
		-bench BENCH_scenarios.json >/dev/null
	$(GO) run ./cmd/scenario -name bringup-64peer -workload bringup -peers 64 \
		-segments 3 -parallelism 8 -stream \
		-bench BENCH_scenarios.json >/dev/null

# Brief fuzzing of the protocol parsers, of the point, signature,
# certificate and enrollment decoders, of group datagrams and key
# messages, of the scenario result gate
# (ValidateJSON), of the field kernels against math/big, of point
# multiplication against math/big and crypto/elliptic (FuzzPointMult)
# and against crypto/elliptic alone (FuzzPointMultStdlib, which skips
# the slow oracle and so mutates far more inputs), and of the
# first-sight verification against explicit extraction (committed
# corpora under testdata/fuzz replay in every plain `go test` run;
# this target digs further — used by CI with a short budget, locally
# run longer). One FuzzPointMult* or FuzzVerifyImplicit input
# costs several point multiplications, so the default minute
# of minimization per new input would use up the whole budget; ten
# executions bound it.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/cantp -fuzz FuzzReceiverPush -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cantp -fuzz FuzzFlowControlParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/transport -fuzz FuzzMessageTrailer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ec/fp -fuzz FuzzFieldOps -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ec -fuzz '^FuzzPointMult$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/ec -fuzz FuzzPointMultStdlib -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/ec -fuzz FuzzDecodePoint -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ecqv -fuzz FuzzECQVDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ecdsa -fuzz FuzzDecodeRaw -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ecdsa -fuzz FuzzVerifyImplicit -fuzztime $(FUZZTIME) -fuzzminimizetime 10x
	$(GO) test ./internal/core -fuzz FuzzDecodePointRaw -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -fuzz FuzzSTSEngine -fuzztime $(FUZZTIME)
	$(GO) test ./internal/session -fuzz FuzzChannelOpen -fuzztime $(FUZZTIME)
	$(GO) test ./internal/group -fuzz FuzzGroupOpen -fuzztime $(FUZZTIME)
	$(GO) test ./internal/enroll -fuzz FuzzEnrollDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/scenario -fuzz FuzzValidateJSON -fuzztime $(FUZZTIME)

# Every example under examples/ runs twice and the two outputs must be
# byte-identical (used by CI): an example that prints in map order or
# wall-clock time reads differently on every run.
EXAMPLES := $(patsubst examples/%/,%,$(wildcard examples/*/))
examples:
	@mkdir -p .examples_out
	@for e in $(EXAMPLES); do \
		$(GO) build -o .examples_out/$$e ./examples/$$e && \
		.examples_out/$$e > .examples_out/$$e.1 && \
		.examples_out/$$e > .examples_out/$$e.2 && \
		cmp .examples_out/$$e.1 .examples_out/$$e.2 && \
		echo "examples: $$e byte-stable" || exit 1; \
	done

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The godoc contract on the deterministic-simulation packages: every
# package comment and every exported declaration documented (doc
# comments there state determinism obligations, so a missing one is a
# missing contract). Zero dependencies — a go/ast walk.
DOCCHECK_PKGS := ./internal/scenario ./internal/canbus ./internal/security \
	./internal/transport ./internal/fleet ./internal/cantp ./internal/conc \
	./internal/detrand ./internal/ec ./internal/ecdsa ./internal/session \
	./internal/core ./internal/group ./internal/prototype ./internal/aead
doccheck:
	$(GO) run ./cmd/doccheck $(DOCCHECK_PKGS)

# Every relative link in the repo's markdown must resolve to a file
# that exists (external URLs are out of scope — no network in CI).
linkcheck:
	$(GO) run ./cmd/linkcheck README.md docs/*.md

# The determinism- and hot-path-contract analyzers (internal/analysis
# + detcheck) over the whole module: wallclock, detrand, maporder,
# spawn, hotpath. Pure stdlib like doccheck/linkcheck — no installs,
# no network. Exits non-zero on any unsuppressed finding, malformed
# //detlint:allow annotation, or unused annotation, so the escape set
# in the tree is exactly the documented exceptions.
detlint:
	$(GO) run ./cmd/detlint ./...

# Static analysis beyond vet. doccheck, linkcheck and detlint are
# in-repo (no install needed); staticcheck and govulncheck are not
# vendored — CI installs them at pinned versions, and locally the
# target degrades to the in-repo checks with a notice rather than
# failing on a missing binary.
lint: vet doccheck linkcheck detlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Coverage with a committed ratchet: the build fails when total
# statement coverage falls below COVERAGE_BASELINE. Raise the baseline
# when coverage genuinely improves; never lower it to make a PR pass.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	base=$$(cat COVERAGE_BASELINE); \
	echo "coverage: $$total% (baseline $$base%)"; \
	awk -v t="$$total" -v b="$$base" 'BEGIN { exit (t + 0 >= b + 0) ? 0 : 1 }' || \
		{ echo "FAIL: coverage $$total% fell below the $$base% baseline"; exit 1; }
