# Tier-1 verification gate: everything must vet, build, and pass the test
# suite with the race detector on. The observability package gets an extra
# explicit vet + race pass so its strict-observer guarantees are always
# exercised even when the main suite is filtered.
GO ?= go

.PHONY: check fmt vet build test race bench bench-gate bench-cmp bench-figures runner-race obs-check obs-race pool-debug telemetry-race queue-race ckpt-race serve-smoke crash-smoke trace-demo profile profile-policies profile-diff profile-base fuzz-smoke

check: fmt vet build race runner-race obs-check obs-race pool-debug telemetry-race queue-race ckpt-race serve-smoke crash-smoke fuzz-smoke profile-diff bench-gate

# fmt fails when any Go file is not gofmt-formatted, and lists the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The harness integration suite is simulation-bound; under the race
# detector it needs far more than go test's default 10-minute budget.
race:
	$(GO) test -race -timeout 90m ./...

obs-check:
	$(GO) vet ./internal/obs/...
	$(GO) test -race ./internal/obs/... -run . -count=1
	$(GO) test -race ./internal/harness/ -run 'TestObservability|TestObsConfig|TestServe' -count=1

# obs-race drives the service-grade observability surface under the race
# detector: job-lifecycle tracing + flight recorder + context logging
# (internal/obs), the latency histograms and request-log middleware
# (internal/telemetry), the instrumented sweep service end to end
# (internal/sweep), and the harness's flight-recorder stall capture and
# bit-identity guarantees.
obs-race:
	$(GO) test -race -count=1 ./internal/telemetry/ \
		-run 'TestHistogram|TestRequestLog|TestStatusWriter'
	$(GO) test -race -count=1 ./internal/sweep/ -run 'TestServiceObservabilityEndToEnd'
	$(GO) test -race -count=1 -short ./internal/harness/ \
		-run 'TestObservabilityIsBitIdenticalWithFlight|TestFlightRecorder|TestSweepExecutor'

# telemetry-race exercises the live telemetry service under the race
# detector: 8 concurrent publishers against a scraping /metrics loop, the
# SSE stream, run-registry lifecycle, and the Prometheus golden file.
telemetry-race:
	$(GO) vet ./internal/telemetry/...
	$(GO) test -race ./internal/telemetry/... -count=1

# queue-race runs the sweep-service packages — the sweep service and the
# crash-consistent result store it keeps its progress in — under the race
# detector: concurrent workers, HTTP handlers deriving job states, Close
# and cancellation all race against each other by design.
queue-race:
	$(GO) vet ./internal/sweep/... ./internal/store/...
	$(GO) test -race -count=1 ./internal/sweep/... ./internal/store/...

# ckpt-race drives the warmup-checkpoint cache under the race detector:
# eight concurrent policy/DRAM variants of one figure point restore from a
# single-flight snapshot (asserting it was built exactly once and every
# variant stays bit-identical), the nws figure driver does the same through
# its worker pool, and the store-backed path recovers from flipped-byte and
# torn-tail corruption.
ckpt-race:
	$(GO) test -race -count=1 -timeout 20m ./internal/harness/ \
		-run 'TestCheckpointSharedParallelVariants|TestCheckpointFigureDriverSingleFlight|TestCheckpointStoreReuseAndCorruption'

# serve-smoke boots `dapsim -serve` on a random port (race detector on),
# curls /healthz and /metrics, asserts the DAP credit and runner pool
# families are exposed, and checks clean shutdown on SIGINT.
serve-smoke:
	./scripts/serve_smoke.sh

# crash-smoke SIGKILLs a running sweep service mid-sweep and verifies the
# restarted process runs the persisted sweep to completion: all jobs done,
# all results served, clean SIGINT exit. The in-process counterpart lives
# in internal/harness/sweep_crash_test.go.
crash-smoke:
	./scripts/crash_smoke.sh

# runner-race exercises the worker pool and the parallel experiment drivers
# under the race detector: the full runner suite (ordering, panic/error
# propagation), the harness unit tests, and the parallel-vs-serial figure
# identity sweep (which shrinks itself to race-affordable drivers — see
# raceEnabled in internal/harness). The full harness integration suite is
# simulation-bound and exceeds any sane race budget; `make race` covers it
# without the detector's ~10x tax via the plain test target.
runner-race:
	$(GO) test -race ./internal/runner
	$(GO) test -race -short ./internal/harness
	$(GO) test -race -run 'TestParallelFiguresBitIdentical|TestAloneFingerprintSeparates' -timeout 20m -count=1 ./internal/harness

# pool-debug reruns the pooled-allocation paths with the request-pool poison
# mode armed (-tags dappooldebug): double-free, use-after-free and
# freed-record callbacks panic instead of corrupting an unrelated request.
# The harness test drives full simulations of all three architectures
# through the armed pools.
pool-debug:
	$(GO) test -tags dappooldebug ./internal/mem/
	$(GO) test -tags dappooldebug -run 'TestPoolingUnderParallelRuns' ./internal/harness/

# bench runs the substrate microbenchmarks plus the end-to-end quick run and
# writes the machine-readable report consumed by DESIGN.md's performance
# section. The long end-to-end benchmarks run in a second invocation with a
# fixed iteration count: under the default 1s benchtime they get only 1-2
# iterations, and a single noisy run then dominates the recorded ns/op.
# bench-figures is the full figure-regeneration benchmark suite.
bench:
	{ $(GO) test -bench='EngineEvent|CacheLookup|DRAMStream|WorkloadGen' \
		-benchmem -run=^$$ . && \
	  $(GO) test -bench='EndToEndQuickRun|EndToEndCheckpointResume|Replicate6' \
		-benchtime=5x -benchmem -run=^$$ . ; } \
		| $(GO) run ./cmd/benchjson -o BENCH_PR10.json \
		-note "cache-conscious data layout: packed SoA tag stores, DAP per-access fast path, streaming checkpoints"

# bench-gate enforces that the data-layout pass keeps its wins: the
# recorded BENCH_PR10.json must not regress against the PR9 baseline by
# more than benchcmp's 10% tolerance in ns/op, bytes/op or allocs/op.
# Matching EndToEnd pulls the checkpoint-resume benchmark into the gate, so
# the streaming encoder's bytes/op reduction is locked in alongside the
# quick-run time. The sub-microsecond substrate benches were recorded in a
# different session and track machine state (frequency scaling, co-tenant
# load) more than code, so cross-session comparison of them gates on
# noise. Re-record the HEAD report with `make bench` after intentional
# changes.
bench-gate:
	$(GO) run ./cmd/benchcmp -match 'EndToEnd|Replicate' \
		BENCH_PR9.json BENCH_PR10.json

bench-figures:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-cmp gates a bench report against a baseline: prints the per-benchmark
# delta table and exits non-zero when any shared benchmark regressed by more
# than 10% in ns/op, bytes/op or allocs/op.
#   make bench-cmp BASE=BENCH_PR3.json HEAD=BENCH_HEAD.json
bench-cmp:
	$(GO) run ./cmd/benchcmp $(BASE) $(HEAD)

# fuzz-smoke runs the checkpoint-envelope fuzzer for 10 seconds: corrupt,
# truncated and bit-flipped envelopes must always be rejected with an
# ErrCorrupt-wrapping error — never a panic — and the corpus grows in
# internal/ckpt/testdata between runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecEnvelope -fuzztime 10s ./internal/ckpt/

# profile captures CPU and allocation profiles of the end-to-end quick run
# and prints the top-10 allocation sites — the view that drove (and guards)
# the allocation-free hot path work.
profile:
	mkdir -p out
	$(GO) test -bench=EndToEndQuickRun -benchmem -run=^$$ \
		-cpuprofile out/cpu.prof -memprofile out/mem.prof .
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects out/mem.prof
	@echo "profiles in out/cpu.prof, out/mem.prof (go tool pprof -http=: out/cpu.prof)"

# profile-policies CPU-profiles one pass of the Fig. 11 related-proposals
# sweep and prints the top 15 nodes. The quick run that profile covers uses
# DAP only, so SBD, SBD-WT and BATMAN (and the deep DRAM queues they build)
# are seen only here.
profile-policies:
	mkdir -p out
	$(GO) test -bench=Fig11RelatedProposals -benchtime=1x -run=^$$ \
		-cpuprofile out/cpu_policies.prof .
	$(GO) tool pprof -top -nodecount=15 out/cpu_policies.prof

# profile-diff re-profiles the end-to-end quick run and diffs its allocation
# sites against the committed baseline (profiles/mem_base.prof, recorded by
# profile-base at the data-layout pass): a hot path that starts allocating
# again shows up as a positive flat delta at the guilty function instead of
# a silent allocs/op creep. Refresh the baseline with `make profile-base`
# after intentional allocation-behavior changes.
profile-diff:
	mkdir -p out
	$(GO) test -bench=EndToEndQuickRun -benchmem -run=^$$ \
		-memprofile out/mem.prof .
	$(GO) tool pprof -top -nodecount=12 -sample_index=alloc_objects \
		-diff_base=profiles/mem_base.prof out/mem.prof

# profile-base records the allocation-profile baseline that profile-diff
# compares against. Run it (and commit profiles/mem_base.prof) only when an
# allocation-behavior change is intentional.
profile-base:
	mkdir -p profiles
	$(GO) test -bench=EndToEndQuickRun -benchmem -run=^$$ \
		-memprofile profiles/mem_base.prof .

# trace-demo produces a small end-to-end observability artifact set: a
# Perfetto-loadable Chrome trace of L3-miss lifecycles and a per-window
# metrics CSV (DAP credits, per-source bandwidth, hit ratios, per-core IPC).
trace-demo:
	mkdir -p out
	$(GO) run ./cmd/dapsim -quick -workload mcf -policy dap \
		-trace out/trace.json -metrics-every 1000 -metrics-out out/metrics.csv
	@echo "open out/trace.json in https://ui.perfetto.dev, plot out/metrics.csv"
