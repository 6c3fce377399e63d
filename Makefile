# Tier-1 entrypoint: `make check` is the gate every change must pass —
# formatting, vet, a full build, and the full test suite.

GO ?= go

# Scratch directory for freshly measured benchmark JSON; the committed
# BENCH_*.json files in the repo root are the baselines benchdiff gates
# against.
BENCHTMP := .bench-tmp

.PHONY: check fmt vet vet-ctx build test kernels race bench bench-dist bench-json bench-check bench-update golden smoke artifact-roundtrip perfbench-test

check: fmt vet vet-ctx build kernels test artifact-roundtrip perfbench-test bench-check

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Context-hygiene passes for the Session API: lostcancel catches leaked
# context.CancelFuncs, httpresponse catches deferring Body.Close before
# the error check in serve-mode clients/tests.
vet-ctx:
	$(GO) vet -lostcancel -httpresponse ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Kernel-agreement gate: the exhaustive small-alphabet enumeration and
# the differential random sweep prove the Myers bit-parallel kernel, the
# banded DP, and the automatic dispatch byte-identical to the naive
# oracle. Short mode keeps it fast enough to run before the full suite.
kernels:
	$(GO) test -short -count=1 -run 'TestExhaustiveKernelAgreement|TestKernelDifferentialRandom' ./internal/distance/

# The concurrency-sensitive packages (concurrent imputation runs, parallel
# discovery, the lock-free metrics sink, the trace ring) under the race
# detector, with tracing exercised at 100% sampling by the stress tests
# and concurrent Discover runs sharing one engine view.
race:
	$(GO) test -race ./internal/core/... ./internal/discovery/... ./internal/engine/... ./internal/obs/...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/core/... ./internal/discovery/...

# String-kernel microbenchmarks: per-kernel exact distance and the
# bounded predicate's pre-filter paths, with allocation counts (which
# must stay at zero).
bench-dist:
	$(GO) test -bench 'BenchmarkKernels|BenchmarkWithinPrefilter' -benchmem -run=^$$ ./internal/distance/

# Measure the five benchmark JSON documents (core, engine, session,
# delta, discovery) into $(BENCHTMP) via the env-gated TestBench*JSON
# emitters. The discovery emitter also asserts the peak pattern-memory
# bound.
bench-json:
	@mkdir -p $(BENCHTMP)
	BENCH_OUT=$(abspath $(BENCHTMP))/BENCH_core.json $(GO) test -run TestBenchJSON -count=1 ./internal/core/
	BENCH_ENGINE_OUT=$(abspath $(BENCHTMP))/BENCH_engine.json $(GO) test -run TestBenchEngineJSON -count=1 ./internal/core/
	BENCH_SESSION_OUT=$(abspath $(BENCHTMP))/BENCH_session.json $(GO) test -run TestBenchSessionJSON -count=1 ./internal/core/
	BENCH_DELTA_OUT=$(abspath $(BENCHTMP))/BENCH_delta.json $(GO) test -run TestBenchDeltaJSON -count=1 ./internal/core/
	BENCH_DISCOVERY_OUT=$(abspath $(BENCHTMP))/BENCH_discovery.json $(GO) test -run TestBenchDiscoveryJSON -count=1 ./internal/discovery/

# The perf-regression gate: fresh measurements against the committed
# baselines. Wall clock gets a wide band (noisy hosts); allocation
# counts a tight one (deterministic). Fails the build on regression.
bench-check: bench-json
	$(GO) run ./cmd/benchdiff \
	  BENCH_core.json $(BENCHTMP)/BENCH_core.json \
	  BENCH_engine.json $(BENCHTMP)/BENCH_engine.json \
	  BENCH_session.json $(BENCHTMP)/BENCH_session.json \
	  BENCH_delta.json $(BENCHTMP)/BENCH_delta.json \
	  BENCH_discovery.json $(BENCHTMP)/BENCH_discovery.json

# Bless the current figures as the new committed baselines after an
# intentional performance change; diff the result before committing.
bench-update: bench-json
	cp $(BENCHTMP)/BENCH_core.json $(BENCHTMP)/BENCH_engine.json \
	   $(BENCHTMP)/BENCH_session.json $(BENCHTMP)/BENCH_delta.json \
	   $(BENCHTMP)/BENCH_discovery.json .

# Artifact-layer gate: deterministic encoding (double-compile is
# byte-identical, the committed golden checksum still matches), full
# round-trip parity against from-scratch sessions, the decoder's typed
# errors under corruption, and the compile -> serve -artifact CLI path.
artifact-roundtrip:
	$(GO) test -count=1 \
	  -run 'TestArtifact|TestCompileServeArtifactRoundTrip|TestDeterministic|TestDecode|TestRoundTrip|TestSharedRoundTrip' \
	  ./internal/artifact/ ./internal/engine/ ./internal/core/ ./cmd/renuver/

# The end-to-end benchmark's own tests. perfbench is a separate module
# that builds against this one, so a library change that breaks the
# benchmark's compile or its self-checks fails here, not at benchmark
# time.
perfbench-test:
	cd perfbench && GOWORK=off $(GO) test ./...

# Regenerate the golden files (trace JSONL schema) after an intentional
# schema change; diff the result before committing.
golden:
	$(GO) test ./internal/core/ -run Golden -update-golden

# End-to-end smoke: boot `renuver serve` on a loopback port, drive the
# /v1 surface concurrently, and verify a clean SIGTERM drain.
smoke:
	RENUVER_SMOKE=1 $(GO) test ./cmd/renuver/ -run TestServeSmoke -count=1 -v
