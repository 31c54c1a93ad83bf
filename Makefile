# Tier-1 verification gate: everything must vet, build, and pass the test
# suite with the race detector on. The observability package gets an extra
# explicit vet + race pass so its strict-observer guarantees are always
# exercised even when the main suite is filtered.
GO ?= go

.PHONY: check fmt vet build test race bench-smoke runner-race obs-check obs-race telemetry-race queue-race ckpt-race serve-smoke crash-smoke trace-demo profile profile-policies fuzz-smoke

check: fmt vet build race runner-race obs-check obs-race telemetry-race queue-race ckpt-race serve-smoke crash-smoke fuzz-smoke bench-smoke

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
	$(GO) test -race ./internal/harness/ -run 'TestObservability|TestDecisionRecording|TestServe' -count=1

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
# variant stays bit-identical), a figure grid does the same through its
# worker pool, the store-backed path recovers from flipped-byte and
# torn-tail corruption, a restore that fails after its cpu section warms a
# fresh system, and a footprint table past its budget round-trips.
ckpt-race:
	$(GO) test -race -count=1 -timeout 20m ./internal/harness/ \
		-run 'TestCheckpointSharedParallelVariants|TestCheckpointFigureDriverSingleFlight|TestCheckpointStoreReuseAndCorruption|TestCheckpointFailedRestoreWarmsFresh|TestCheckpointFootprintOverBudget'

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
# raceEnabled in internal/harness). The full harness integration suite runs
# under the detector in `make race` (go test -race with a 90-minute
# timeout); this target keeps the -short subset and the identity sweep.
runner-race:
	$(GO) test -race ./internal/runner
	$(GO) test -race -short ./internal/harness
	$(GO) test -race -run 'TestParallelFiguresBitIdentical|TestAloneFingerprintSeparates' -timeout 20m -count=1 ./internal/harness

# bench-smoke vets the end-to-end benchmark and runs its own tests (bench/
# is a module of its own, so the root `go vet ./...` and `go test ./...`
# skip it): every workload, untraced and traced, at a tiny scale with all of
# its correctness checks, including the resumed Alloy run's digest against a
# cold run. Timing is judged parent against change on one host with
# `sh bench/run.sh compare`, not against a committed baseline.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# fuzz-smoke runs the checkpoint-envelope fuzzer for 10 seconds: corrupt,
# truncated and bit-flipped envelopes must always be rejected with an
# ErrCorrupt-wrapping error — never a panic — and the corpus grows in
# internal/ckpt/testdata between runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecEnvelope -fuzztime 10s ./internal/ckpt/

# profile captures CPU and allocation profiles of one quick DAP run of
# rate-8 libquantum (dapsim -cpuprofile/-memprofile) and prints the top-10
# allocation sites — the view that drove (and guards) the allocation-free
# hot path work.
profile:
	mkdir -p out
	$(GO) run ./cmd/dapsim -quick -workload libquantum -policy dap \
		-cpuprofile out/cpu.prof -memprofile out/mem.prof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_objects out/mem.prof
	@echo "profiles in out/cpu.prof, out/mem.prof (go tool pprof -http=: out/cpu.prof)"

# profile-policies CPU-profiles one quick run of the heterogeneous mix
# hetero-sim-01 under SBD and one under BATMAN and prints the top 15 nodes
# of the two profiles merged. The run that profile covers uses DAP only, so
# SBD and BATMAN (and the deep DRAM queues they build) are seen only here.
profile-policies:
	mkdir -p out
	$(GO) run ./cmd/dapsim -quick -mix hetero-sim-01 -policy sbd -cpuprofile out/cpu_sbd.prof
	$(GO) run ./cmd/dapsim -quick -mix hetero-sim-01 -policy batman -cpuprofile out/cpu_batman.prof
	$(GO) tool pprof -top -nodecount=15 out/cpu_sbd.prof out/cpu_batman.prof

# trace-demo produces a small end-to-end observability artifact set: a
# Perfetto-loadable Chrome trace of L3-miss lifecycles and a per-window
# metrics CSV (DAP credits, per-source bandwidth, hit ratios, per-core IPC).
trace-demo:
	mkdir -p out
	$(GO) run ./cmd/dapsim -quick -workload mcf -policy dap \
		-trace out/trace.json -metrics-every 1000 -metrics-out out/metrics.csv
	@echo "open out/trace.json in https://ui.perfetto.dev, plot out/metrics.csv"
