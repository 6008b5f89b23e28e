# Tier-1 verification and benchmark entry points.
#
#   make check   — build + vet + full test suite + sharded-engine
#                  race smoke + equivalence-fuzz smoke + native
#                  parser-fuzz smoke (the tier-1 gate)
#   make fuzz-native [FUZZTIME=5s] — coverage-guided fuzzing of the
#                  wire parsers (FuzzParseInfo, FuzzValidateSRH)
#   make chaos-smoke — chaos-injection determinism gate: chaos unit
#                  tests, crash/impairment tests, chaos-heavy
#                  equivalence slice (the CI chaos job)
#   make obs-smoke — observability gate: obs package tests, the
#                  netsim recorder tests, and a headless serve run
#                  writing the three artifacts (Prometheus text, JSON
#                  snapshot, trace_event dump) to OBS_DUMP_DIR on the
#                  2-shard optimistic engine
#   make race    — full test suite under the race detector (CI job;
#                  the parallel simulation engine must be race-clean)
#   make fuzz-deep — full-depth randomized equivalence fuzzing of the
#                  conservative and optimistic shard engines (the
#                  scheduled CI job). FUZZ_SCENARIOS is the single
#                  depth knob for fuzz-deep and fuzz-deep-race: the
#                  Makefile translates it to the SRV6BPF_FUZZ_SCENARIOS
#                  environment variable the test reads — set the make
#                  variable, not the env var.
#   make fuzz-deep-race — the same fuzzing under the race detector
#                  (shallower FUZZ_SCENARIOS recommended; ~10x slower)
#   make matrix-smoke — behaviour-matrix engine-equivalence gate: the
#                  committed L3VPN / SFC-proxy / TI-LFA scenarios run
#                  under the sequential, conservative and optimistic
#                  engines and must produce bit-identical fingerprints
#   make pdr-smoke — SRPerf-style PDR saturation harness, smoke
#                  depth: a 2-step binary search of the End behavior
#                  only, proving the offered-load generator, the
#                  drop-rate accounting and the bisection converge
#                  (the full per-behavior scan runs under bench-json)
#   make bench   — wall-clock datapath + figure benchmarks (-benchmem)
#   make bench-json [BENCH_JSON=path] — machine-readable perf report
#                  including the full PDR scan and the SimUDP
#                  burst=1/burst=N datapath pair (BURST sets N)
#   make bench-ci — regenerate the perf report as BENCH_PR999.json and
#                  diff it (plus every committed BENCH_PR*.json)
#                  through TestBenchTrajectory: schema, row
#                  continuity, zero-alloc datapath rows, the
#                  speculation-overhead budget, the burst-pair
#                  speedup floor and the PDR row contract (the CI
#                  bench job)
#   make bench-multicore [MULTICORE_JSON=path MULTICORE_WINDOW=20ms] —
#                  the multi-core shard-scaling matrix (both engines,
#                  1/2/4/8 shards, contiguous vs min-cut on the seeded
#                  256-node Waxman) at the current GOMAXPROCS; writes
#                  the report JSON and fails if min-cut does not cut
#                  cross-shard Messages >= 30% at 4 shards, or (on a
#                  >= 4-core machine) if no multi-shard min-cut row
#                  beats the 1-shard baseline (the CI bench-multicore
#                  job)
#   make perf-smoke — wall-clock benchmark correctness gate: one
#                  1-second srv6perf run per workload (lab-endbpf,
#                  waxman-fwd, hybrid-wrr) at the reference seed; each
#                  must report "correct":true and "failed":0, i.e. its
#                  modeled fingerprints match srv6perf/reference.json
#                  (the CI bench job)
#   make fmt     — gofmt the tree

GO ?= go
BENCH_JSON ?= BENCH.json
BENCH_WINDOW ?= 50ms
FUZZ_SCENARIOS ?= 150
FUZZ_RACE_SCENARIOS ?= 60
FUZZTIME ?= 5s
BENCH_CI_JSON ?= BENCH_PR999.json
OBS_DUMP_DIR ?= obs-artifacts
BURST ?= 32
MULTICORE_JSON ?= MULTICORE.json
MULTICORE_WINDOW ?= 20ms

.PHONY: check build vet test race race-smoke fuzz-smoke fuzz-native fuzz-deep fuzz-deep-race chaos-smoke obs-smoke pdr-smoke matrix-smoke bench bench-json bench-ci bench-multicore perf-smoke fmt

check: build vet test race-smoke fuzz-smoke fuzz-native obs-smoke pdr-smoke matrix-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The quick 2-shard sequential-vs-parallel equivalence gate, run under
# the race detector: determinism and race-cleanliness of the sharded
# engine in one short pass.
race-smoke:
	$(GO) test -race -run 'TestShardEquivalenceSmoke|TestCrossShardInFlightFailure' ./internal/netsim

# A second pass of the randomized sequential/conservative/optimistic
# equivalence fuzzer at smoke depth: -count 2 re-runs the same seeds
# and catches nondeterminism across process runs.
fuzz-smoke:
	$(GO) test -run 'TestShardEquivalenceFuzz' -count 2 ./internal/netsim

# Coverage-guided mutation of the wire parsers (native go fuzzing),
# bounded by FUZZTIME per target — the smoke setting keeps `make
# check` fast; the nightly CI job runs the same targets longer.
fuzz-native:
	$(GO) test ./internal/packet -run '^$$' -fuzz FuzzParseInfo -fuzztime $(FUZZTIME)
	$(GO) test ./internal/packet -run '^$$' -fuzz FuzzValidateSRH -fuzztime $(FUZZTIME)

# Chaos determinism gate: the chaos package's own tests plus the
# crash/impairment tests and a chaos-heavy slice of the equivalence
# fuzzer (roughly half the derived scenarios carry a fault campaign).
chaos-smoke:
	$(GO) test -count 1 ./internal/netsim/chaos
	$(GO) test -count 1 -run 'TestNodeCrash|TestCrash|TestCorruption|TestDuplication|TestReorder' ./internal/netsim
	SRV6BPF_FUZZ_SCENARIOS=16 $(GO) test -count 1 -run 'TestShardEquivalenceFuzz' ./internal/netsim

# Observability gate: the obs package's own tests, the simulator-side
# recorder tests (rollback equivalence, alloc parity), and a headless
# serve run on the 2-shard optimistic engine that must produce the
# three non-empty artifacts (the CI bench job uploads them).
obs-smoke:
	$(GO) test -count 1 ./internal/obs
	$(GO) test -count 1 -run 'TestObs|TestProgStats' ./internal/netsim ./internal/core
	rm -rf $(OBS_DUMP_DIR)
	$(GO) run ./cmd/srv6sim -scenario serve -engine optimistic -shards 2 -obs-dump $(OBS_DUMP_DIR)
	test -s $(OBS_DUMP_DIR)/metrics.prom
	test -s $(OBS_DUMP_DIR)/stats.json
	test -s $(OBS_DUMP_DIR)/trace.json

race:
	$(GO) test -race ./...

fuzz-deep:
	SRV6BPF_FUZZ_SCENARIOS=$(FUZZ_SCENARIOS) $(GO) test -run 'TestShardEquivalenceFuzz' -timeout 30m -v ./internal/netsim

fuzz-deep-race:
	SRV6BPF_FUZZ_SCENARIOS=$(FUZZ_RACE_SCENARIOS) $(GO) test -race -run 'TestShardEquivalenceFuzz' -timeout 30m ./internal/netsim

# PDR harness smoke: a coarse (2-probe) saturation search of the End
# behavior. Converging at all exercises the whole harness — generator,
# full-drain drop accounting, bisection invariants — in under a second.
pdr-smoke:
	$(GO) run ./cmd/srv6bench -pdr-smoke

# Behaviour-matrix gate: the three committed scenarios (multi-tenant
# L3VPN over a fat-tree, SFC through End.AS/End.AM proxies, TI-LFA
# protection behind a binding SID) must be bit-identical under the
# sequential, conservative and optimistic engines.
matrix-smoke:
	$(GO) run ./cmd/srv6bench -matrix

bench:
	$(GO) test -run '^$$' -bench BenchmarkDatapath -benchmem .

bench-json:
	$(GO) run ./cmd/srv6bench -bench-json $(BENCH_JSON) -duration $(BENCH_WINDOW) -burst $(BURST)

# The CI perf gate: write a fresh report under a PR number sorting
# after every committed one, then let TestBenchTrajectory diff the
# whole series (the fresh report included).
bench-ci:
	$(GO) run ./cmd/srv6bench -bench-json $(BENCH_CI_JSON) -duration $(BENCH_WINDOW) -burst $(BURST)
	$(GO) test -count 1 -run 'TestBenchTrajectory' -v .

# The multi-core scaling matrix: both engines, 1/2/4/8 shards,
# contiguous vs min-cut on the seeded 256-node Waxman scenario, at
# whatever GOMAXPROCS the machine grants. srv6bench itself enforces
# the partition gates (Messages cut >= 30% at 4 shards; with >= 4
# cores, speedup_vs_1shard > 1 on some multi-shard min-cut row).
bench-multicore:
	$(GO) run ./cmd/srv6bench -multicore-json $(MULTICORE_JSON) -shard-duration $(MULTICORE_WINDOW)

# srv6perf's last output line is its JSON verdict. A schedule change
# in the event core (or anywhere else) that moves a seed-1 fingerprint
# away from srv6perf/reference.json turns "correct" false; no tier-1
# test compares those fingerprints.
perf-smoke:
	@for w in lab-endbpf waxman-fwd hybrid-wrr; do \
		line=$$(bash srv6perf/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1) || exit 1; \
		echo "$$w: $$line"; \
		echo "$$line" | grep -q '"correct":true' && echo "$$line" | grep -Eq '"failed":0[,}]' || \
			{ echo "perf-smoke: $$w is not correct:true with failed:0" >&2; exit 1; }; \
	done

fmt:
	gofmt -w .
