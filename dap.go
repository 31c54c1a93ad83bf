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
	"runtime/debug"
	"strings"

	"dap/internal/core"
	"dap/internal/faultinject"
	"dap/internal/harness"
	"dap/internal/obs"
	"dap/internal/sim"
	"dap/internal/stats"
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
// with WriteCSV.
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

// DecisionRecorder collects the per-window DAP decision records found on
// Result.Decisions when Config.Observe.Decisions is set on a DAP run, with
// the run's constants (solver variant, K ratio, sources, Equation 3 bound);
// export with WriteCSV.
type DecisionRecorder = core.DecisionRecorder

// DecisionRecord is one window of partitioner introspection: solver inputs
// (window counts), outputs (credit refills), the implied access fractions,
// and the counterfactual optimality-gap audit against the Equation 3 bound.
type DecisionRecord = core.DecisionRecord

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

// ParseArchitecture resolves an architecture name ("sectored", "alloy",
// "edram", "none") to its enum, with an error listing the valid names.
func ParseArchitecture(name string) (Architecture, error) { return harness.ParseArch(name) }

// ParsePolicyName resolves a policy name ("baseline", "dap", "dap-fwb-wb",
// "sbd", "sbd-wt", "batman") to its enum.
func ParsePolicyName(name string) (Policy, error) { return harness.ParsePolicy(name) }

// ConfigFingerprint condenses a configuration into a short stable hex token
// covering every behavior-affecting field. dapsim stamps it on each
// metrics and decision export: two artifacts carry the same fingerprint if
// and only if their configurations were identical.
func ConfigFingerprint(cfg Config) string { return harness.Fingerprint(cfg) }

// BuildVersion reports the git revision this binary was built from (a short
// hash, "+dirty" when the tree was modified, or "dev" without VCS info);
// dapsim stamps it on metrics and decision exports.
func BuildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "dev"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
