package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"dap/internal/obs"
	"dap/internal/sim"
	"dap/internal/stats"
	"dap/internal/sweep"
	"dap/internal/workload"
)

// This file wires the simulator into the sweep service: resolving job
// specs to configurations, deriving store keys from the configuration
// fingerprint, and executing jobs deterministically so stored results are
// byte-for-byte interchangeable with fresh runs.

// ParseArch resolves an architecture name ("sectored", "alloy", "edram",
// "none") to its enum.
func ParseArch(name string) (Arch, error) {
	for _, a := range []Arch{SectoredDRAM, AlloyCache, SectoredEDRAM, NoMSCache} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown arch %q (want sectored|alloy|edram|none)", name)
}

// ParsePolicy resolves a policy name ("baseline", "dap", "dap-fwb-wb",
// "sbd", "sbd-wt", "batman") to its enum.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range []Policy{Baseline, DAP, DAPFWBWB, SBD, SBDWT, BATMAN} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want baseline|dap|dap-fwb-wb|sbd|sbd-wt|batman)", name)
}

// sweepConfig resolves a job spec to a runnable (Config, Mix) pair.
func sweepConfig(spec sweep.JobSpec) (Config, workload.Mix, error) {
	cfg := Default()
	if spec.Quick {
		cfg = Quick()
	}
	if spec.Cores > 0 {
		cfg.CPU.Cores = spec.Cores
	}
	if spec.Instr > 0 {
		cfg.MeasureInstr = spec.Instr
	}
	if spec.Warm > 0 {
		cfg.WarmAccesses = spec.Warm
	}
	arch, err := ParseArch(spec.Arch)
	if err != nil {
		return Config{}, workload.Mix{}, err
	}
	cfg.Arch = arch
	pol, err := ParsePolicy(spec.Policy)
	if err != nil {
		return Config{}, workload.Mix{}, err
	}
	cfg.Policy = pol
	mix, err := resolveMix(spec.Mix, cfg.CPU.Cores)
	if err != nil {
		return Config{}, workload.Mix{}, err
	}
	cfg.Sampled = spec.Sampled
	// The service always flies the black box, so a failed job's stored
	// outcome carries its flight recording.
	cfg.Observe.Flight = true
	return cfg, mix, nil
}

// resolveMix finds a mix by name: first among the full suite (rate mixes
// and heterogeneous mixes), then as a bare snippet name run rate-style.
func resolveMix(name string, cores int) (workload.Mix, error) {
	for _, m := range workload.AllMixes(cores) {
		if m.Name == name {
			return m, nil
		}
	}
	if s, ok := workload.ByName(name); ok {
		return workload.RateMix(s, cores), nil
	}
	return workload.Mix{}, fmt.Errorf("unknown mix %q", name)
}

// SweepKey derives the store key of a job: the configuration fingerprint
// (which covers arch, policy, core count and run lengths — see Fingerprint)
// plus the mix name and seed. Identical requests — even from different
// sweeps or across restarts — therefore share a key and a stored result.
func SweepKey(spec sweep.JobSpec) string {
	cfg, mix, err := sweepConfig(spec)
	if err != nil {
		// Unresolvable specs are caught by SweepValidate before submission;
		// fall back to the spec string so the job still has a stable key.
		return "invalid-" + spec.String()
	}
	return fmt.Sprintf("%s-%s-s%d", Fingerprint(cfg), mix.Name, spec.Seed)
}

// SweepValidate rejects specs that do not resolve to a runnable
// configuration, so malformed requests 400 at submission instead of being
// persisted and stored as failures.
func SweepValidate(spec sweep.JobSpec) error {
	_, _, err := sweepConfig(spec)
	return err
}

// SweepResult is the stored payload of one completed job: deterministic
// JSON (fixed field order, integer-exact counters) so byte identity of
// payloads is equivalent to bit identity of the simulation.
type SweepResult struct {
	Mix         string    `json:"mix"`
	Arch        string    `json:"arch"`
	Policy      string    `json:"policy"`
	Seed        uint64    `json:"seed"`
	Fingerprint string    `json:"fingerprint"`
	AggIPC      float64   `json:"agg_ipc"`
	Run         stats.Run `json:"run"`
	// Sampling carries the interval-sampling estimator's report for
	// Sampled jobs (absent on full runs).
	Sampling *SamplingReport `json:"sampling,omitempty"`
}

// SweepExecutorCkpt returns the sweep service's sweep.Executor: it runs
// one job spec through the simulator and renders its SweepResult, resuming
// from the shared warmup-checkpoint cache ck when ck is non-nil, so
// concurrent jobs differing only in runtime policy restore from one
// single-flight snapshot with byte-identical results. The context carries
// the job's correlation ID and logger (obs.WithCorr / obs.WithLogger); an
// aborted run comes back as an *obs.FlightError wrapping the cause, so the
// service can store the frozen flight recording in the job's failure
// record and serve it as a postmortem.
//
// Every error it returns depends only on the spec (resolution, watchdog
// stall, audit violation, result encoding, checkpoint encoding; checkpoint
// disk I/O is best-effort), which is why the service stores a failure
// instead of retrying.
func SweepExecutorCkpt(ck *Checkpoints) sweep.Executor {
	return func(ctx context.Context, spec sweep.JobSpec) ([]byte, error) {
		return sweepExecute(ctx, spec, ck)
	}
}

func sweepExecute(ctx context.Context, spec sweep.JobSpec, ck *Checkpoints) ([]byte, error) {
	cfg, mix, err := sweepConfig(spec)
	if err != nil {
		return nil, err
	}
	corr := obs.Corr(ctx)
	log := obs.LoggerFrom(ctx)
	log.Info("simulation start", "corr", corr,
		"mix", mix.Name, "arch", cfg.Arch.String(), "policy", cfg.Policy.String(),
		"seed", spec.Seed, "fingerprint", Fingerprint(cfg))
	res, err := RunSeededCkptE(cfg, mix, spec.Seed, ck)
	if err != nil {
		reason, snap := classifyAbort(err)
		log.Error("simulation aborted", "corr", corr, "reason", reason, "err", err.Error())
		if res.Flight != nil {
			dump := res.Flight.Dump(reason, snap)
			dump.Corr = corr
			dump.Key = SweepKey(spec)
			dump.Error = err.Error()
			return nil, &obs.FlightError{Dump: dump, Err: err}
		}
		return nil, err
	}
	agg := res.AggregateIPC()
	log.Info("simulation done", "corr", corr,
		"mix", mix.Name, "agg_ipc", agg, "cycles", uint64(res.Cycles))
	out := SweepResult{
		Mix: mix.Name, Arch: cfg.Arch.String(), Policy: cfg.Policy.String(),
		Seed: spec.Seed, Fingerprint: Fingerprint(cfg), AggIPC: agg, Run: res.Run,
		Sampling: res.Sampling,
	}
	payload, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("encode sweep result: %w", err)
	}
	return payload, nil
}

// classifyAbort maps an abnormal run ending onto a flight-dump reason and
// extracts the engine-state snapshot captured at detection time.
func classifyAbort(err error) (reason, snapshot string) {
	var stall *sim.StallError
	if errors.As(err, &stall) {
		return "watchdog-stall", stall.Snapshot
	}
	var audit *AuditError
	if errors.As(err, &audit) {
		return "audit-violation", ""
	}
	return "run-error", ""
}
