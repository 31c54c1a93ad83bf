// Package dap is a from-scratch reproduction of "Near-Optimal Access
// Partitioning for Memory Hierarchies with Multiple Heterogeneous Bandwidth
// Sources" (HPCA 2017). It bundles a cycle-level memory-hierarchy simulator
// — out-of-order cores, an L1/L2/L3 SRAM hierarchy, DDR4/LPDDR4/HBM/eDRAM
// DRAM models, three memory-side cache architectures — together with the
// paper's contribution, the DAP dynamic access partitioning algorithm, and
// the related policies it is compared against (SBD, SBD-WT, BATMAN, BEAR).
//
// The package exposes a small facade over the internal packages: build a
// Config, pick a Workload, and Run it. The experiment drivers that
// regenerate every table and figure of the paper are listed in Drivers; the
// analytical bandwidth model of Section III is exposed directly.
//
// Quick start:
//
//	cfg := dap.DefaultConfig()
//	cfg.Policy = dap.PolicyDAP
//	res := dap.Run(cfg, dap.RateWorkload("mcf", 8))
//	fmt.Println(res.AggregateIPC(), res.MainMemCASFraction())
package dap

import (
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"strings"

	"dap/internal/core"
	"dap/internal/faultinject"
	"dap/internal/harness"
	"dap/internal/obs"
	"dap/internal/sim"
	"dap/internal/stats"
	"dap/internal/sweep"
	"dap/internal/telemetry"
	"dap/internal/workload"
)

// Architecture selects the memory-side cache organization.
type Architecture = harness.Arch

// Memory-side cache architectures (Section II of the paper).
const (
	SectoredDRAMCache = harness.SectoredDRAM // 4 KB-sector die-stacked HBM cache
	AlloyCache        = harness.AlloyCache   // direct-mapped TAD cache
	SectoredEDRAM     = harness.SectoredEDRAM
	MainMemoryOnly    = harness.NoMSCache
)

// Policy selects the partitioning/steering policy.
type Policy = harness.Policy

// Policies.
const (
	PolicyBaseline = harness.Baseline
	PolicyDAP      = harness.DAP
	PolicyDAPFWBWB = harness.DAPFWBWB // DAP restricted to FWB+WB (Fig. 8)
	PolicySBD      = harness.SBD
	PolicySBDWT    = harness.SBDWT
	PolicyBATMAN   = harness.BATMAN
)

// Config is a complete system configuration. Config.Validate reports every
// problem at once as structured diagnostics (RunE calls it for you); the
// hardening knobs — Audit, WatchdogEvents, Faults — live here too.
type Config = harness.Config

// FaultPlan schedules deterministic fault injection for a run: dropped DRAM
// responses, delayed metadata fetches, corrupted DAP credit updates. Attach
// one via Config.Faults.
type FaultPlan = faultinject.Plan

// StallError is the diagnostic the forward-progress watchdog or deadlock
// detector attaches to Result.Abort when a run stops making progress.
type StallError = sim.StallError

// AuditError is the diagnostic the runtime invariant auditor (Config.Audit)
// attaches to Result.Abort on the first violated invariant.
type AuditError = harness.AuditError

// DefaultConfig returns the paper's default system: eight 4-wide cores with
// 224-entry ROBs, a 4 GB (64x scaled: 64 MB) sectored HBM DRAM cache at
// 102.4 GB/s with an SRAM tag cache and footprint prefetcher, and
// dual-channel DDR4-2400 main memory.
func DefaultConfig() Config { return harness.Default() }

// QuickConfig returns a shortened configuration for tests and demos.
func QuickConfig() Config { return harness.Quick() }

// Workload is a named eight-way (or n-way) multi-programmed mix.
type Workload = workload.Mix

// WorkloadByNameE returns the paper's rate-n mode for a named snippet: n
// copies of the same application, one per core. An unknown name yields an
// error listing every valid one.
func WorkloadByNameE(name string, cores int) (Workload, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("dap: unknown workload %q (valid names: %s)",
			name, strings.Join(workload.Names(), ", "))
	}
	return workload.RateMix(spec, cores), nil
}

// RateWorkload is WorkloadByNameE for callers that prefer a panic on an
// unknown name (e.g. package-level test fixtures).
func RateWorkload(name string, cores int) Workload {
	w, err := WorkloadByNameE(name, cores)
	if err != nil {
		panic(err.Error())
	}
	return w
}

// WorkloadNames lists the 17 synthetic application snippets.
func WorkloadNames() []string { return workload.Names() }

// Spec is a synthetic application description; build your own to evaluate a
// new workload (see examples/custom_workload).
type Spec = workload.Spec

// SpecOf returns the parameters of a named snippet (useful as a starting
// point for custom specs).
func SpecOf(name string) (Spec, bool) { return workload.ByName(name) }

// CustomRate runs n copies of a custom spec, one per core.
func CustomRate(spec Spec, cores int) Workload { return workload.RateMix(spec, cores) }

// CustomMix builds a heterogeneous mix from arbitrary specs (one per core).
func CustomMix(name string, specs []Spec) Workload {
	return Workload{Name: name, Specs: specs}
}

// Workloads returns the full 44-mix evaluation suite for an n-core system
// (12 bandwidth-sensitive rate mixes, 5 insensitive, 27 heterogeneous).
func Workloads(cores int) []Workload { return workload.AllMixes(cores) }

// Result is the outcome of one simulation.
type Result = harness.Result

// MetricsSampler is the windowed time-series sampler found on
// Result.Metrics when Config.Observe.MetricsEvery is set; export its series
// with WriteCSV or WriteJSONL.
type MetricsSampler = obs.Sampler

// LifecycleTracer is the request-lifecycle tracer found on Result.Trace
// when Config.Observe.TraceEvery is set; export its spans with
// WriteChromeTrace (loads in Perfetto / chrome://tracing).
type LifecycleTracer = obs.Tracer

// LatencyBreakdown aggregates traced L3-miss phase latencies by serving
// source and DAP technique (Result.Breakdown).
type LatencyBreakdown = stats.LatencyBreakdown

// EffectiveDAPWindow returns the DAP observation window (in cycles) the
// configured policy will use: the override's window when one is set, else
// the paper's 64-cycle default.
func EffectiveDAPWindow(cfg Config) uint64 {
	if cfg.DAPOverride != nil && cfg.DAPOverride.Window != 0 {
		return uint64(cfg.DAPOverride.Window)
	}
	return 64
}

// RunE simulates a workload on a configuration: the configuration is
// validated (every problem reported at once), then functional warmup and the
// timed region run. A run that ends abnormally — watchdog, deadlock or audit
// violation — returns the partial Result together with its Abort error.
func RunE(cfg Config, w Workload) (Result, error) { return harness.RunMixE(cfg, w) }

// Run is RunE for callers that prefer a panic over error plumbing; the panic
// message carries the same structured diagnostics.
func Run(cfg Config, w Workload) Result {
	r, err := RunE(cfg, w)
	if err != nil {
		panic("dap: " + err.Error())
	}
	return r
}

// WarmupCheckpoints is the shared warmup-checkpoint cache behind `dapsim
// -ckpt-dir` and Options.Ckpt: the full post-warmup simulator state is
// snapshotted once per (workload, architecture, warmup length, seed) prefix
// and every runtime-policy variant of that prefix resumes from the shared
// snapshot, single-flight under concurrency. Resumed runs are bit-identical
// to straight runs; only the wall clock changes.
type WarmupCheckpoints = harness.Checkpoints

// NewWarmupCheckpoints opens a checkpoint cache persisted (crash-safely)
// under dir; checkpoints are reused across processes.
func NewWarmupCheckpoints(dir string) (*WarmupCheckpoints, error) {
	return harness.NewCheckpoints(dir)
}

// InMemoryWarmupCheckpoints returns a process-local checkpoint cache.
func InMemoryWarmupCheckpoints() *WarmupCheckpoints { return harness.MemCheckpoints() }

// RunCheckpointedE is RunE with a run-level workload stream seed (0 behaves
// like RunE), resuming from the shared warmup-checkpoint cache (ck == nil
// warms directly) — replicated measurements under different address
// streams, with their warmups shared.
func RunCheckpointedE(cfg Config, w Workload, seed uint64, ck *WarmupCheckpoints) (Result, error) {
	return harness.RunSeededCkptE(cfg, w, seed, ck)
}

// SamplingReport is the interval-sampling estimator's account found on
// Result.Sampling when Config.Sampled is set: interval count, convergence,
// and 95% confidence intervals for the headline metrics.
type SamplingReport = harness.SamplingReport

// MetricCI is a sampled metric: mean, 95% confidence half-width, intervals.
type MetricCI = harness.MetricCI

// AloneIPCE measures the single-core IPC of a named snippet on cfg, the
// denominator of the paper's weighted-speedup metric.
func AloneIPCE(cfg Config, name string) (float64, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return 0, fmt.Errorf("dap: unknown workload %q (valid names: %s)",
			name, strings.Join(workload.Names(), ", "))
	}
	return harness.AloneIPC(cfg, spec), nil
}

// AloneIPC is AloneIPCE with a panic on an unknown name.
func AloneIPC(cfg Config, name string) float64 {
	v, err := AloneIPCE(cfg, name)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// Replicate runs a workload over n address-stream seeds — fanning the
// simulations across up to parallel workers (0 = GOMAXPROCS, 1 = serial) —
// and returns the per-seed values of metric in seed order plus their mean
// and population standard deviation. Results are identical at any
// parallelism. An invalid configuration, or a replica that aborts
// (watchdog, deadlock or audit violation), returns an error and no values.
func Replicate(parallel int, cfg Config, w Workload, n int, metric func(Result) float64) (vals []float64, mean, std float64, err error) {
	return harness.ReplicateParallel(parallel, cfg, w, n, metric)
}

// Figure identifies a reproducible experiment.
type Figure = harness.Figure

// Experiments drive the paper's evaluation. Options{Quick: true} shortens
// runs by roughly an order of magnitude.
type Options = harness.Options

// Driver is one keyed experiment: Run regenerates a table or figure of the
// paper, a DAP ablation, or an observability or calibration table, and Key
// is its `figures -only` key.
type Driver = harness.Driver

// Drivers lists every experiment driver once, in the order `figures` runs
// them; DESIGN.md's experiment index says what each key reproduces.
var Drivers = harness.Drivers

// DecisionRecorder collects the per-window partitioner decision records and
// baseline policy events found on Result.Decisions when
// Config.Observe.Decisions is set; export with WriteCSV/WriteJSONL or merge
// its counter tracks into the Chrome trace via Result.WriteTrace.
type DecisionRecorder = core.DecisionRecorder

// DecisionRecord is one window of partitioner introspection: solver inputs
// (window counts, K ratio), outputs (credit refills), the implied access
// fractions, and the counterfactual optimality-gap audit against the
// Equation 3 bound.
type DecisionRecord = core.DecisionRecord

// PolicyEvent is the baseline policies' (SBD, BATMAN) introspection record,
// captured at their own adjustment points into the same decision stream.
type PolicyEvent = core.PolicyEvent

// DeliveredBandwidth evaluates the paper's Equation 2 and OptimalFractions
// Equation 3/4: how bandwidth is delivered by n parallel sources and how
// accesses should be split across them.
func DeliveredBandwidth(bandwidths, fractions []float64) float64 {
	return core.DeliveredBandwidth(bandwidths, fractions)
}

// OptimalFractions returns the access split that maximizes delivered
// bandwidth: proportional to each source's bandwidth.
func OptimalFractions(bandwidths []float64) []float64 {
	return core.OptimalFractions(bandwidths)
}

// GeoMean aggregates normalized speedups the way the paper reports GMEAN.
func GeoMean(vs []float64) float64 { return stats.GeoMean(vs) }

// TelemetryServer is the live monitoring HTTP service behind `dapsim -serve`
// and `figures -serve`: Prometheus-text /metrics, /runs JSON, a per-run SSE
// stream, an embedded dashboard, /healthz and /debug/pprof.
type TelemetryServer = telemetry.Server

// Serve starts the process-wide telemetry service on addr (host:port; port 0
// picks a free one) and returns the server plus the bound address. Every
// simulation in the process registers itself automatically; publishing is
// lock-free and read-only, so serving telemetry never perturbs results.
func Serve(addr string) (*TelemetryServer, string, error) {
	return ServeLogged(addr, nil)
}

// ServeLogged is Serve with structured request logging: every HTTP request
// gets one slog record (method, path, status, duration) on logger. A nil
// logger serves silently, exactly like Serve.
func ServeLogged(addr string, logger *slog.Logger) (*TelemetryServer, string, error) {
	srv := telemetry.NewServer(telemetry.Default, telemetry.Runs)
	srv.Logger = logger
	bound, err := srv.Start(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// NewLogger builds a structured logger writing to w. format is "text" or
// "json"; level is "debug", "info", "warn" or "error" (default info). It is
// the logger behind dapsim's -log-level/-log-format flags.
func NewLogger(w io.Writer, level, format string) *slog.Logger {
	return obs.NewLogger(w, level, format)
}

// ParseArchitecture resolves an architecture name ("sectored", "alloy",
// "edram", "none") to its enum, with an error listing the valid names.
func ParseArchitecture(name string) (Architecture, error) { return harness.ParseArch(name) }

// ParsePolicyName resolves a policy name ("baseline", "dap", "dap-fwb-wb",
// "sbd", "sbd-wt", "batman") to its enum.
func ParsePolicyName(name string) (Policy, error) { return harness.ParsePolicy(name) }

// SweepService is the sweep execution service behind
// `dapsim -serve -sweep-dir`: persisted sweep specs run against a
// crash-consistent result store keyed by configuration fingerprint, which
// is the service's only record of progress. See ServeSweeps.
type SweepService = sweep.Service

// SweepSpec is the client-facing sweep request: the cross product of
// mixes × archs × policies × seeds (POST /jobs).
type SweepSpec = sweep.SweepSpec

// ServeSweeps starts the telemetry server on addr with the sweep service
// mounted on it (POST/GET/DELETE /jobs, /jobs/{id}/results,
// /jobs/{id}/flight, /trace). State lives under dir: "sweeps/" holds the
// submitted specs, "results/" every job's result or failure record, and
// "ckpt/" the warmup checkpoints policy variants of a sweep point share. A
// process killed at any point reopens the same dir and runs the persisted
// sweeps again; jobs whose outcome is stored are skipped, not re-simulated.
// workers bounds concurrent simulations (0 = GOMAXPROCS). logger receives
// every job edge, simulation record and HTTP request, stamped with the
// job's correlation ID where one applies; nil serves silently. Stop with
// svc.Close then srv.Shutdown.
func ServeSweeps(addr, dir string, workers int, logger *slog.Logger) (*TelemetryServer, *SweepService, string, error) {
	ck, err := harness.NewCheckpoints(filepath.Join(dir, "ckpt"))
	if err != nil {
		return nil, nil, "", err
	}
	svc, err := sweep.Open(dir, harness.SweepExecutorCkpt(ck), sweep.Config{
		Workers: workers, Key: harness.SweepKey, Validate: harness.SweepValidate,
		Logger: logger, Tracer: obs.NewJobTracer(0),
	})
	if err != nil {
		return nil, nil, "", err
	}
	srv := telemetry.NewServer(telemetry.Default, telemetry.Runs)
	srv.Logger = logger
	svc.Attach(srv)
	bound, err := srv.Start(addr)
	if err != nil {
		return nil, nil, "", err
	}
	svc.Start()
	return srv, svc, bound, nil
}

// ConfigFingerprint condenses a configuration into a short stable hex token
// covering every behavior-affecting field. Telemetry stamps it on each
// registered run and each metrics export: two artifacts carry the same
// fingerprint if and only if their configurations were identical.
func ConfigFingerprint(cfg Config) string { return harness.Fingerprint(cfg) }

// BuildVersion reports the git revision this binary was built from (a short
// hash, "+dirty" when the tree was modified, or "dev" without VCS info); it
// is stamped on metrics exports and the /healthz endpoint.
func BuildVersion() string { return telemetry.Version() }
