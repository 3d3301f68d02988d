# Tier-1 verification (`make verify`, see ROADMAP.md) and the benchmark
# regression gate (`make bench-compare`, see bench/README.md).

GO ?= go

.PHONY: build test vet race chaos benchsmoke lint obs-smoke scenario-smoke figures-check verify bench-compare bench-ab clean

build:
	$(GO) build ./...

# The second run takes the portable CTR loop and the stdlib HMAC of the
# link cipher (DESIGN.md §7) through the tests of the two packages that
# seal, crypto/sha256 under the runtime's message digests, and
# crypto/ecdh and crypto/ed25519 through the launch and attestation
# tests of the enclave and deployment packages, in a build with no
# kernel: an amd64 host with AES-NI, SHA-NI and IFMA otherwise only ever
# runs the kernels. Then every example runs once, so one that
# fails at run time fails the target.
test:
	$(GO) test ./...
	$(GO) test -tags purego ./internal/xcrypto/... ./internal/channel/... ./internal/runtime/... ./internal/enclave/... ./internal/deploy/...
	@for ex in examples/*/; do $(GO) run ./$$ex >/dev/null || { echo "$$ex failed"; exit 1; }; done

vet:
	$(GO) vet ./...

# Race-check the packages with real concurrency: the parallel deployment
# builder, the sweep engine, the peer runtime underneath both, the TCP
# transport with its pooled frame handoff, the multi-process scenario
# orchestrator, and — since the simulator fires a window's nodes on every
# core (DESIGN.md §6) — the event engine, the simulated network, the
# overlay routers that relay on their nodes' lanes, and the protocol,
# beacon and public-API suites that drive clusters through them. The
# chaos suite is not listed: `chaos` below is its race run (the eighth
# line repeats its trace tests). The second run repeats the lane
# executor's own tests five times: a worker's
# summon, arrival and cancel race Run's goroutine, and each run sees one
# schedule of those interleavings. The third does the same for the
# prefetch's key-cache reservations, where peers on different workers
# reserve, derive and wait for each other's pairs; the fourth for the
# batched launch and roster check, whose groups run on the worker pool.
# The fifth repeats the batched wire golden and the retention tests of
# the outbox, the payload slabs and the event calendar three times; the
# sixth runs the outbox tests and the slab and record tests on one, two
# and four cores, because workers carve payloads from slabs of their
# own, take records a chunk at a time and release both for each other;
# the seventh does the same for byzantine OSes on lanes — the byzantine
# lane scenario, a byzantine joiner, the tape, and one behaviour value
# set on several nodes, each of which must draw from a coin of its own;
# the eighth for traced and metered runs on lanes, whose workers hand
# their trace records to the network's op logs and add to shared gauges:
# the chaos traces against themselves and against one goroutine, the
# enabling rule, and the mux gauges. The ninth does the same for the
# pair's one link cipher, which both ends of a pair seal and open through
# (DESIGN.md §6): two ends on two goroutines, the pair hand-over, a full
# mesh and a restart; the tenth repeats the first two without the
# kernels, where each end keeps a cipher of its own because the portable
# paths write scratch.
race:
	$(GO) test -race ./internal/deploy/... ./internal/experiments/... ./internal/runtime/... ./internal/tcpnet/... ./internal/scenario/... ./internal/vclock/... ./internal/simnet/... ./internal/overlay/... ./internal/core/... ./internal/beacon/... .
	$(GO) test -race -count=5 -run 'Handoff|Lane' ./internal/vclock/... ./internal/simnet/...
	$(GO) test -race -count=5 -run 'PrefetchDerivesEachPairOnce' ./internal/deploy/...
	$(GO) test -race -count=3 -run 'LaunchBatchMatchesLaunch|RosterErrorsMatchSerialLoop' ./internal/enclave/... ./internal/deploy/...
	$(GO) test -race -count=3 -run 'BatchedWireStreamGolden|MuxOutboxRetention|StandingBeaconPayloadRetention|CalendarArraysFollowTheQueue' ./internal/deploy/... ./internal/runtime/... ./internal/simnet/... ./internal/vclock/...
	$(GO) test -race -cpu 1,2,4 -run 'SparseOutbox|FinishedPeerReleasesProtocol|LaneSlabs|LaneRecords' ./internal/runtime/... ./internal/simnet/...
	$(GO) test -race -cpu 1,2,4 -run 'LanesMatchSerialLoop/erb-byzantine|LanesJoinAndRestart|OnlyRecorderKeepsTape|SharedBehaviorValue' ./internal/deploy/... ./internal/adversary/...
	$(GO) test -race -cpu 1,2,4 -run 'TraceDeterministic|MuxTraceDeterministic|TracedChaosOnLanes|LanesRule|MuxGaugesSumOverNodes' ./internal/chaos/... ./internal/deploy/...
	$(GO) test -race -cpu 1,2,4 -run 'SharedCipherSealWhileOpen|PairSharesOneCipher|FullMeshHoldsOneCipherPerPair|RestartPreparesFreshCipher' ./internal/xcrypto/... ./internal/channel/... ./internal/deploy/...
	$(GO) test -race -tags purego -run 'SharedCipherSealWhileOpen|PairSharesOneCipher' ./internal/xcrypto/... ./internal/channel/...

# chaos runs the deterministic fault-injection suite under the race
# detector: fixed-seed schedules (crash-restart, partitions, flips)
# against ERB/ERNG invariants plus the beacon bias battery, traced and
# metered on the lane executor like any other deployment. Failures print
# the seed to replay with `p2pexp -experiment chaos -chaos-seed`.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/...

# benchsmoke compiles and runs every benchmark for a single iteration so
# a broken benchmark cannot sit undetected until the next bench run.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# lint runs the project analyzers (cmd/p2plint, one per invariant:
# detrand, maporder, droperr, muxboundary, shadow, and the
# interprocedural seal boundary sealflow/keyleak — see DESIGN.md §9) over
# the whole module and fails on gofmt drift.
# Suppressions require `//lint:allow <analyzer> <reason>`; stale
# suppressions are findings themselves.
lint:
	$(GO) run ./cmd/p2plint ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt drift in:"; echo "$$fmt_out"; exit 1; fi

# obs-smoke is the end-to-end observability check: replay one seeded
# crash-restart chaos schedule twice with the tracer and metrics on, once
# on one goroutine and once with the lane executor free to use four,
# validate the JSONL schema, and require the two traces byte-identical.
# Any nondeterminism that leaks into an event (wall clock, map order,
# the order nodes on different workers record in) fails the diff with
# the first diverging line.
obs-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	GOMAXPROCS=1 $(GO) run ./cmd/p2pexp -experiment chaos -chaos-seed 7 \
		-trace "$$dir/a.jsonl" -metrics-out "$$dir/a.prom" >/dev/null && \
	GOMAXPROCS=4 $(GO) run ./cmd/p2pexp -experiment chaos -chaos-seed 7 \
		-trace "$$dir/b.jsonl" -metrics-out "$$dir/b.prom" >/dev/null && \
	$(GO) run ./cmd/p2ptrace -check "$$dir/a.jsonl" && \
	$(GO) run ./cmd/p2ptrace -diff "$$dir/a.jsonl" "$$dir/b.jsonl"

# scenario-smoke is the multi-process end-to-end check (DESIGN.md §13)
# and the live observability plane's (§10): build the real node binary,
# run the ERNG slow-link manifest at n=4, the byzantine-chain manifest at
# its default n=7 (two flips of its fault schedule, each applied by the
# flipped node on its own adversary OS) and the optimized-beacon
# manifest at n=16 (Algorithm 6's fallback cluster, one node flipped to
# omit everything), then the honest ERB fleet at n=4 — a second call,
# because -instances would apply to the other three manifests too — as
# actual TCP process fleets via cmd/p2pscenario. Every node ships its
# events, span hops, probe gauges and result over its control connection
# and the runner writes them, so each run's one event archive,
# merged.jsonl, is then schema-checked and span-reconstructed — the full
# path from per-process BeginSpan to the cross-process hop histogram.
# The generous Δ override keeps the round windows safe on loaded CI
# hosts; the invariants (agreement, acceptance, round bounds) are
# asserted by the runner itself.
scenario-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/p2pnode" ./cmd/p2pnode && \
	$(GO) run ./cmd/p2pscenario -node-bin "$$dir/p2pnode" -out "$$dir" -keep \
		-param delta=300ms scenarios/slow-link.json scenarios/byzantine-chain.json \
		scenarios/beacon-opt.json && \
	$(GO) run ./cmd/p2pscenario -node-bin "$$dir/p2pnode" -out "$$dir" -keep \
		-testcase erb-honest -instances 4 -param delta=300ms scenarios/honest-sweep.json && \
	for f in "$$dir"/*/merged.jsonl; do \
		$(GO) run ./cmd/p2ptrace -check "$$f" && \
		$(GO) run ./cmd/p2ptrace -spans "$$f" >/dev/null || exit 1; done

# figures-check regenerates every table and figure at default scale and
# compares the output byte for byte with the recorded golden (the sweeps
# are deterministic for a fixed seed at any GOMAXPROCS). An intended
# change re-records it:
#   go run ./cmd/p2pexp -experiment all > cmd/p2pexp/testdata/all.golden
figures-check:
	$(GO) run ./cmd/p2pexp -experiment all -check cmd/p2pexp/testdata/all.golden

# verify is the tier-1 gate: build, vet, full test suite, race subset,
# chaos fault-injection suite, one-iteration benchmark smoke run, the
# project lint battery, the traced-replay determinism smoke, the
# multi-process scenario smoke with its live telemetry, and the figures
# golden check.
verify: build vet test race chaos benchsmoke lint obs-smoke scenario-smoke figures-check

# bench-compare is the regression gate over the repo benchmark
# (BENCHMARK.json, bench/README.md): run the whole suite on this tree
# into a scratch directory, then check every end-to-end metric against
# the bounds relative to an earlier results.json —
#   make bench-compare BASE=path/to/results.json
# A full suite is five workloads x two passes x run_seconds; take BASE
# on the same host in the same window, or the comparison reads host
# drift.
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<results.json>"; exit 2; }
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./bench -out "$$dir" && \
	$(GO) run ./bench -compare $(BASE) "$$dir/results.json"

# bench-ab is the A/B a performance claim is judged with: cmd/benchab
# builds ./bench from a temporary git worktree of BASE and from the
# working tree, runs PAIRS base/change pairs of one workload
# (`-seconds SECONDS -trace 0`, one seed, the side that runs first
# alternating), prints each pair's end-to-end metrics, both sides'
# medians and quartiles and how many pairs the change won, and removes
# the worktree —
#   make bench-ab BASE=<rev> WORKLOAD=<w> PAIRS=<k> SECONDS=<s>
# Run nothing else meanwhile: the pairs cancel the host's drift, not a
# second load.
PAIRS ?= 10
SECONDS ?= 8
bench-ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-ab BASE=<rev> WORKLOAD=<w> [PAIRS=10] [SECONDS=8]"; exit 2; }
	$(GO) run ./cmd/benchab -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS) -seconds $(SECONDS)

clean:
	$(GO) clean ./...
