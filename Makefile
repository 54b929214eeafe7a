# Development targets for the weakkeys reproduction.

GO ?= go

.PHONY: ci build vet bench-check test race bench bench-pipeline smoke chaos-smoke keyserver-smoke cluster-smoke cluster-chaos scan-smoke anomaly-smoke bench-telemetry bench-keyserver bench-ingest bench-gcd bench-cluster bench-scan bench-anomaly

# ci is the full gate: compile everything, vet (bench/ too), run the test suite under
# the race detector (which includes every fault-injection test), smoke-
# test the live telemetry path, the real-socket scan example and the
# GCD crash-recovery path, the online key-check service, the replicated
# cluster (routing, sync and a replica-kill failover), the scan->ingest
# pipeline and the anomalous-key verdict classes end to end, guard the
# instrumentation hot-path cost, and hold the batch-GCD kernel, the scan
# engine and the anomaly probes to their throughput and exactness floors.
ci: build vet bench-check race smoke chaos-smoke keyserver-smoke cluster-smoke cluster-chaos scan-smoke anomaly-smoke bench-telemetry bench-gcd bench-scan bench-anomaly

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

# bench-cluster benchmarks keyload through keyrouter against three
# replicas and writes BENCH_cluster.json (floor: 1000 checks/sec
# aggregate through the routed scatter-gather path).
bench-cluster:
	sh ./scripts/bench-cluster.sh

# bench-keyserver drives keyload against a local keyserverd and writes
# BENCH_keyserver.json (p50/p99 latency, checks/sec; floor 1000/sec).
bench-keyserver:
	sh ./scripts/bench-keyserver.sh

# bench-ingest times Snapshot.Ingest of a 5% delta against the full
# batch-GCD + rebuild pipeline at ~20k moduli and writes
# BENCH_ingest.json (floor: 5x speedup for the incremental path).
bench-ingest:
	sh ./scripts/bench-ingest.sh

# scan-smoke runs zscand over a chaos-faulted simulated fleet against a
# live keyserverd: the re-sweep recovers every fault, delta checkpoints
# land on disk, and the continuous-ingest bridge flips a weak fleet
# modulus from clean/unknown to factored with no server restart.
scan-smoke:
	sh ./scripts/scan-smoke.sh

# bench-gcd runs the batch-GCD pipeline on kernel engines of increasing
# width and writes BENCH_gcd.json (floors: >=2x over serial on >=4
# cores; arena recycling must allocate strictly less than no-arena).
bench-gcd:
	sh ./scripts/bench-gcd.sh

# bench-scan benchmarks the zscan engine in process and writes
# BENCH_scan.json (floors: >= 50000 probes/sec single-process; the
# 2-shard audit and concurrent shard sweep must be exact — zero
# overlap, zero omission, every device harvested once).
bench-scan:
	sh ./scripts/bench-scan.sh

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

# bench-anomaly sweeps the per-modulus anomaly probes over a corpus with
# planted flaws and writes BENCH_anomaly.json, enforcing full recall,
# zero false hits and the 100 probes/sec floor.
bench-anomaly:
	sh ./scripts/bench-anomaly.sh
