# Development targets for the weakkeys reproduction.

GO ?= go

.PHONY: ci build vet bench-check test race fuzz-smoke bench bench-pipeline smoke chaos-smoke keyserver-smoke cluster-smoke cluster-chaos scan-smoke anomaly-smoke examples-smoke bench-telemetry bench-smoke

# ci is the full gate: compile everything, vet (bench/ too), run the test suite under
# the race detector (which includes every fault-injection test), smoke-
# test the live telemetry path, the real-socket scan example and the
# GCD crash-recovery path, the online key-check service, the replicated
# cluster (routing, sync and a replica-kill failover), the scan->ingest
# pipeline and the anomalous-key verdict classes end to end, run the
# examples, guard the instrumentation hot-path cost, fuzz every parser
# and differential target briefly, and run every benchmark workload once
# against generator ground truth. Nothing here
# writes a tracked file: exactness lives in the race-tested suite, speed
# is judged by parent-vs-change pairs on bench/ (BENCHMARK.json).
ci: build vet bench-check race fuzz-smoke smoke chaos-smoke keyserver-smoke cluster-smoke cluster-chaos scan-smoke anomaly-smoke examples-smoke bench-telemetry bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench-check vets and tests bench/, the benchmark driver's module. It
# is a module of its own that imports internal/..., so build/vet/race
# above never compile it and an internal API change that breaks it would
# otherwise only fail in the benchmark driver.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke runs every native fuzz target in the tree for two seconds
# each, one invocation per target because go test fuzzes one at a time.
# The checked-in corpora already run as plain tests under `race`; this
# is the mutating engine. A crasher fails the build and lands under the
# package's testdata/fuzz/ (so git status shows it); a clean run keeps
# what it finds in the Go build cache and writes nothing here.
fuzz-smoke:
	@grep -rHo --include='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build '^func Fuzz[A-Za-z0-9_]*' . | \
	while IFS=: read -r file fn; do \
		name=$${fn#func }; \
		echo "fuzz $$(dirname $$file) $$name"; \
		$(GO) test -run xxx -fuzz "^$$name\$$" -fuzztime 2s $$(dirname $$file) || exit 1; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-pipeline measures the stage-wrapping overhead of internal/pipeline
# against direct calls (expected: well under 1%).
bench-pipeline:
	$(GO) test -run xxx -bench 'BenchmarkPipelineOverhead' .

# smoke runs weakkeys at small scale with -metrics, -trace and -listen,
# scrapes /metrics once and asserts it is populated across packages.
smoke:
	sh ./scripts/smoke.sh

# chaos-smoke runs examples/livescan (two zscan sweeps over loopback
# sockets: heartbeat-crashed devices must refuse the second sweep and
# the harvest must still factor 4 of 7 moduli) and weakkeys under
# injected GCD node crashes, whose output must be identical to the
# fault-free run (counters checked via /metrics).
chaos-smoke:
	sh ./scripts/chaos-smoke.sh

# keyserver-smoke starts keyserverd on a small simulated study and
# checks one known-weak and one known-clean corpus key end to end over
# HTTP, plus a malformed submission (400), the /metrics scrape, request
# correlation through /debug/events and /debug/requests, and the
# /debug/bundle gzip-tar round trip.
keyserver-smoke:
	sh ./scripts/keyserver-smoke.sh

# cluster-smoke starts three partial-snapshot keyserverd replicas
# behind keyrouter and checks routed verdicts (weak/clean/novel), the
# scatter-gather coverage, a routed ingest, journal-pull sync
# propagation to every shard owner, and a non-degraded failover after
# killing one replica.
cluster-smoke:
	sh ./scripts/cluster-smoke.sh

# cluster-chaos drives keyload through keyrouter while one of three
# replicas is SIGKILLed mid-run: every check must still be answered
# (zero lost verdicts) and the router telemetry must show the failover.
cluster-chaos:
	sh ./scripts/cluster-chaos.sh

# scan-smoke runs zscand over a chaos-faulted simulated fleet against a
# live keyserverd: the re-sweep recovers every fault, delta checkpoints
# land on disk, and the continuous-ingest bridge flips a weak fleet
# modulus from clean/unknown to factored with no server restart.
scan-smoke:
	sh ./scripts/scan-smoke.sh

# bench-telemetry guards the instrumentation hot path: counter Add and
# histogram Observe must stay in the low nanoseconds, event Emit within
# its ~200ns flight-recorder budget, and the disabled (nil) paths at
# roughly one branch (fixed iteration count so the guard is fast enough
# for ci).
bench-telemetry:
	$(GO) test -run xxx -bench 'BenchmarkCounterAdd$$|BenchmarkHistogramObserve$$|BenchmarkNilCounterAdd$$|BenchmarkEventEmit$$|BenchmarkNilEventEmit$$' -benchtime 200000x ./internal/telemetry

# anomaly-smoke starts keyserverd with the anomalous device cohorts and
# asserts every beyond-GCD verdict class (shared_modulus, fermat_weak,
# small_factor, unsafe_exponent) over the HTTP API.
anomaly-smoke:
	sh ./scripts/anomaly-smoke.sh

# examples-smoke runs the examples no other target reaches (livescan is
# in chaos-smoke) and checks each one's headline claim; passivedecrypt is
# internal/tlslite's only non-test importer. grep -q stops reading at
# the match, so quickstart, which prints more after it, reports a
# harmless "signal: broken pipe". The last three lines are README's
# quickstart pipelines — the paper's own tool, keygen | batchgcd, in each
# corpus format (internal/sshkeys has no other importer).
examples-smoke:
	$(GO) run ./examples/quickstart | grep -q 'Vulnerable RSA moduli'
	$(GO) run ./examples/entropyhole | grep -q 'decrypted RSA ciphertext with the recovered key: 0x5e55104cafe (want 0x5e55104cafe)'
	$(GO) run ./examples/clusterfactor | grep -q 'all algorithms agree on the vulnerable set\.'
	$(GO) run ./examples/passivedecrypt | grep -q 'USER admin PASS swordfish-42'
	$(GO) run ./cmd/keygen -n 200 -weak 0.05 -bits 256 -seed 7 | $(GO) run ./cmd/batchgcd -k 4 -stats 2>&1 | grep -q 'factored 9 of 200 moduli'
	$(GO) run ./cmd/keygen -n 60 -weak 0.1 -bits 256 -seed 7 -format ssh | $(GO) run ./cmd/batchgcd -k 4 -stats 2>&1 | grep -q 'factored 5 of 60 moduli'
	$(GO) run ./cmd/keygen -n 60 -weak 0.1 -bits 256 -seed 7 -format pem | $(GO) run ./cmd/batchgcd -k 4 -stats 2>&1 | grep -q 'factored 5 of 60 moduli'

# bench-smoke runs all four bench/ workloads for 3 s each: any answer
# that disagrees with generator ground truth exits non-zero, and the
# only files written are under the git-ignored .bench_build/.
bench-smoke:
	bash bench/run.sh --seed 1 --seconds 3
