# Development targets for the weakkeys reproduction.

GO ?= go

.PHONY: ci build vet vet-386 bench-check test race e2e fuzz-smoke bench bench-pipeline bench-telemetry bench-smoke

# ci is the full gate: compile everything, vet (bench/ too, and the
# tree again for 386, with the word-width arithmetic tested there), run the
# test suite under the race detector — every fault-injection test, and
# the e2e package's process-level checks (real binaries, signals, files
# on disk: the study on one tree and on three subsets, keyserverd from startup to
# drain with a zscand sweep bridged into it, a three-replica cluster
# through a SIGKILL, every example and the bad-flag table) — fuzz every
# parser and differential target briefly, guard the instrumentation
# hot-path cost, and run every benchmark workload once against
# generator ground truth. Nothing here writes a tracked file: exactness
# lives in the race-tested suite, speed is judged by parent-vs-change
# pairs on bench/ (BENCHMARK.json).
ci: build vet vet-386 bench-check race fuzz-smoke bench-telemetry bench-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-386 vets the tree for 32-bit words and runs the two packages whose
# arithmetic branches on big.Word's width (the Montgomery kernels in
# numtheory — the slice kernel and the two-limb rho kernel, whose limbs
# cross the big.Int boundary as pairs of 32-bit words — the base-2
# primality gate, prodtree.Reducer, and prodtree's number-theoretic
# transform multiply, its fused product-and-derivative pair, chunked
# carries and scaled descent, which read two 32-bit words as one 64-bit
# limb) against their big.Int and radix-2 oracles there.
vet-386:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/numtheory ./internal/prodtree

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

# e2e runs the process-level checks alone (they also run inside test and
# race): TestMain builds every cmd/ and examples/ binary once into a
# temp dir, and every wait is a poll against a deadline.
e2e:
	$(GO) test -count=1 ./e2e

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

# bench-telemetry guards the instrumentation hot path: counter Add and
# histogram Observe must stay in the low nanoseconds, event Emit within
# its ~200ns flight-recorder budget, and the disabled (nil) paths at
# roughly one branch (fixed iteration count so the guard is fast enough
# for ci).
bench-telemetry:
	$(GO) test -run xxx -bench 'BenchmarkCounterAdd$$|BenchmarkHistogramObserve$$|BenchmarkNilCounterAdd$$|BenchmarkEventEmit$$|BenchmarkNilEventEmit$$' -benchtime 200000x ./internal/telemetry

# bench-smoke runs all four bench/ workloads for 3 s each: any answer
# that disagrees with generator ground truth exits non-zero, and the
# only files written are under the git-ignored .bench_build/.
bench-smoke:
	bash bench/run.sh --seed 1 --seconds 3
