# Tier-1 verification gate: everything must vet, build, and pass the test
# suite with the race detector on. The observability package gets an extra
# explicit vet + race pass so its strict-observer guarantees are always
# exercised even when the main suite is filtered.
GO ?= go

.PHONY: check fmt vet build test race bench-smoke runner-race obs-check ckpt-race trace-demo profile profile-policies fuzz-smoke figures-full

check: fmt vet build race runner-race obs-check ckpt-race fuzz-smoke bench-smoke

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

# obs-check vets the observer package and runs it under the race detector,
# then the decision CSV golden beside the obs goldens, then the harness's
# observer bit-identity proofs (sampler, tracer, decision recorder, flight
# recorder) and the flight recorder's stall capture.
obs-check:
	$(GO) vet ./internal/obs/...
	$(GO) test -race ./internal/obs/... -run . -count=1
	$(GO) test -race ./internal/core/ -run TestDecisionCSVGolden -count=1
	$(GO) test -race ./internal/harness/ -run 'TestObservability|TestDecisionRecording|TestFlightRecorder' -count=1

# ckpt-race drives the warmup-checkpoint cache under the race detector:
# eight concurrent policy/DRAM variants of one figure point restore from a
# single-flight snapshot (asserting it was built exactly once and every
# variant stays bit-identical), a figure grid does the same through its
# worker pool, four caches on one checkpoint dir race to build, write and
# read the same <WarmKey>.ckpt file as four processes would, the dir-backed
# path recovers from flipped-byte, flipped-magic and torn-tail files, a
# restore that fails after its cpu section warms a fresh system and drops
# the file for rebuild, and a footprint table past its budget round-trips.
# The cpu suite runs the functional warmup's three-stage pipeline (stream
# draw, SRAM walk, memory-side replay goroutines) under the detector,
# including its split-warm and panic-propagation tests.
ckpt-race:
	$(GO) test -race -count=1 -timeout 20m ./internal/harness/ \
		-run 'TestCheckpointSharedParallelVariants|TestCheckpointFigureDriverSingleFlight|TestCheckpointDirConcurrentWriters|TestCheckpointStoreReuseAndCorruption|TestCheckpointFailedRestoreWarmsFresh|TestCheckpointFootprintOverBudget'
	$(GO) test -race -count=1 ./internal/cpu/

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

# figures-full regenerates every figures key at full length, sharing
# warmup checkpoints in memory, into figures_full.txt: about 15 minutes
# on two CPUs. The binary is built with go build, not go run, so its
# header line carries the commit; a (total in Ns) line follows the last key.
figures-full:
	mkdir -p out
	$(GO) build -o out/figures ./cmd/figures
	out/figures -ckpt > figures_full.txt

# trace-demo produces a small end-to-end observability artifact set: a
# Perfetto-loadable Chrome trace of L3-miss lifecycles, a per-window
# metrics CSV (DAP credits, per-source bandwidth, hit ratios, per-core IPC)
# and the per-window DAP decision CSV (counts, grants, fractions, gap).
trace-demo:
	mkdir -p out
	$(GO) run ./cmd/dapsim -quick -workload mcf -policy dap \
		-trace out/trace.json -metrics-every 1000 -metrics-out out/metrics.csv \
		-decisions out/decisions.csv
	@echo "open out/trace.json in https://ui.perfetto.dev, plot out/metrics.csv and out/decisions.csv"
