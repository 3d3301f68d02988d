# Tier-1 verification (`make verify`, see ROADMAP.md) and the benchmark
# regression gate (`make bench-compare`, see bench/README.md).

GO ?= go

.PHONY: build test vet race chaos benchsmoke lint obs-smoke scenario-smoke obs-live-smoke figures-check verify bench-compare clean

build:
	$(GO) build ./...

# The second run takes the portable CTR loop and the stdlib HMAC of the
# link cipher (DESIGN.md §7) through the tests of the two packages that
# seal, in a build with neither kernel: an amd64 host with AES-NI and
# SHA-NI otherwise only ever runs the two kernels.
test:
	$(GO) test ./...
	$(GO) test -tags purego ./internal/xcrypto/... ./internal/channel/...

vet:
	$(GO) vet ./...

# Race-check the packages with real concurrency: the parallel deployment
# builder, the sweep engine, the peer runtime underneath both, the TCP
# transport with its pooled frame handoff, the multi-process scenario
# orchestrator, and — since the simulator fires a window's nodes on every
# core (DESIGN.md §6) — the event engine, the simulated network, and the
# protocol, beacon and public-API suites that drive clusters through
# them. The chaos suite is not listed: `chaos` below is its race run.
race:
	$(GO) test -race ./internal/deploy/... ./internal/experiments/... ./internal/runtime/... ./internal/tcpnet/... ./internal/scenario/... ./internal/vclock/... ./internal/simnet/... ./internal/core/... ./internal/beacon/... .

# chaos runs the deterministic fault-injection suite under the race
# detector (its only race run in `verify`): fixed-seed schedules
# (crash-restart, partitions, flips) against ERB/ERNG invariants plus the
# beacon bias battery. Failures print the seed to replay with
# `p2pexp -experiment chaos -chaos-seed`.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/...

# benchsmoke compiles and runs every benchmark for a single iteration so
# a broken benchmark cannot sit undetected until the next bench run.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# lint runs the project analyzers (cmd/p2plint: determinism, map-order,
# enclave-boundary error handling, lockstep, shadow, nilness, plus the
# interprocedural seal-boundary battery sealflow/keyleak/lockorder — see
# DESIGN.md §9 and §14) over the whole module and fails on gofmt drift.
# Suppressions require `//lint:allow <analyzer> <reason>`; stale
# suppressions are findings themselves.
lint:
	$(GO) run ./cmd/p2plint ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt drift in:"; echo "$$fmt_out"; exit 1; fi

# obs-smoke is the end-to-end observability check: replay one seeded
# crash-restart chaos schedule twice with the tracer and metrics on,
# validate the JSONL schema, and require the two traces byte-identical.
# Any nondeterminism that leaks into an event (wall clock, map order)
# fails the diff with the first diverging line.
obs-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/p2pexp -experiment chaos -chaos-seed 7 \
		-trace "$$dir/a.jsonl" -metrics-out "$$dir/a.prom" >/dev/null && \
	$(GO) run ./cmd/p2pexp -experiment chaos -chaos-seed 7 \
		-trace "$$dir/b.jsonl" -metrics-out "$$dir/b.prom" >/dev/null && \
	$(GO) run ./cmd/p2ptrace -check "$$dir/a.jsonl" && \
	$(GO) run ./cmd/p2ptrace -diff "$$dir/a.jsonl" "$$dir/b.jsonl"

# scenario-smoke is the multi-process end-to-end check (DESIGN.md §13):
# build the real node binary, run the ERNG slow-link manifest as an
# actual TCP process fleet via cmd/p2pscenario, then validate the run's
# merged cross-process telemetry with p2ptrace -check. (The honest ERB
# fleet at n=4 is obs-live-smoke's run, under the same invariants.) The
# generous Δ override keeps the round windows safe on loaded CI hosts;
# the invariants (agreement, acceptance, round bounds) are asserted by
# the runner itself.
scenario-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/p2pnode" ./cmd/p2pnode && \
	$(GO) run ./cmd/p2pscenario -node-bin "$$dir/p2pnode" -out "$$dir" -keep \
		-param delta=300ms scenarios/slow-link.toml && \
	for f in "$$dir"/*/merged.jsonl; do \
		$(GO) run ./cmd/p2ptrace -check "$$f" || exit 1; done

# obs-live-smoke is the live observability plane check (DESIGN.md §10)
# and the honest-ERB half of the multi-process check: run the 4-node
# erb-honest fleet with -stream on, so every node's exporter feeds its
# trace file and, over the control connection, the runner's live view
# (events, metric deltas, resource-probe gauges). The run's one event
# archive, merged.jsonl, is then schema-checked and span-reconstructed —
# the full path from per-process BeginSpan to the cross-process hop
# histogram.
obs-live-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/p2pnode" ./cmd/p2pnode && \
	$(GO) run ./cmd/p2pscenario -node-bin "$$dir/p2pnode" -out "$$dir" -keep \
		-stream -testcase erb-honest -instances 4 -param delta=300ms \
		scenarios/honest-sweep.toml && \
	$(GO) run ./cmd/p2ptrace -check "$$dir"/*/merged.jsonl && \
	$(GO) run ./cmd/p2ptrace -spans "$$dir"/*/merged.jsonl

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
# multi-process scenario smoke, the live-streaming observability smoke,
# and the figures golden check.
verify: build vet test race chaos benchsmoke lint obs-smoke scenario-smoke obs-live-smoke figures-check

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

clean:
	$(GO) clean ./...
