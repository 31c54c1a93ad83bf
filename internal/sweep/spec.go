// Package sweep runs simulation sweeps with the result store as the only
// record of progress.
//
// A sweep is a persisted spec: the cross product of mixes × archs ×
// policies × seeds, written to a store entry before it is acknowledged.
// Running a sweep means executing every job whose key the result store
// does not yet hold an outcome for, in submission order. Simulations are
// deterministic, so an outcome — a result or a failure record — is final:
// a stored job is never executed again, and a failed one would only fail
// the same way. Crash recovery is therefore nothing more than running the
// persisted sweeps again; the store skips what is already done.
//
// The package is generic: a JobSpec is names and knobs, and the executor
// (internal/harness wires the simulator in) decides what they mean.
package sweep

import (
	"fmt"
	"time"
)

// JobSpec describes one simulation: which mix on which architecture under
// which policy and seed, plus optional run-length knobs. The executor
// interprets it; the service only keys it.
type JobSpec struct {
	Mix    string `json:"mix"`
	Arch   string `json:"arch"`
	Policy string `json:"policy"`
	Seed   uint64 `json:"seed"`

	Cores int    `json:"cores,omitempty"`
	Instr uint64 `json:"instr,omitempty"`
	Warm  int    `json:"warm,omitempty"`
	Quick bool   `json:"quick,omitempty"`
	// Sampled asks the executor for SMARTS-style interval sampling instead
	// of the full timed region (the result carries confidence intervals).
	Sampled bool `json:"sampled,omitempty"`
}

// String renders the spec as the default store key.
func (j JobSpec) String() string {
	return fmt.Sprintf("%s|%s|%s|seed=%d|cores=%d|instr=%d|warm=%d|quick=%v|sampled=%v",
		j.Mix, j.Arch, j.Policy, j.Seed, j.Cores, j.Instr, j.Warm, j.Quick, j.Sampled)
}

// SweepSpec is the client-facing request: the cross product of mixes ×
// archs × policies × seeds, sharing the run-length knobs.
type SweepSpec struct {
	Mixes    []string `json:"mixes"`
	Archs    []string `json:"archs"`
	Policies []string `json:"policies"`
	Seeds    []uint64 `json:"seeds"`

	Cores   int    `json:"cores,omitempty"`
	Instr   uint64 `json:"instr,omitempty"`
	Warm    int    `json:"warm,omitempty"`
	Quick   bool   `json:"quick,omitempty"`
	Sampled bool   `json:"sampled,omitempty"`
}

// Expand returns the sweep's jobs in deterministic submission order
// (mix-major, then arch, policy, seed). Absent dimensions default to the
// simulator's defaults: arch "sectored", policy "baseline", seed 0.
func (s SweepSpec) Expand() []JobSpec {
	archs := s.Archs
	if len(archs) == 0 {
		archs = []string{"sectored"}
	}
	policies := s.Policies
	if len(policies) == 0 {
		policies = []string{"baseline"}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	var out []JobSpec
	for _, mix := range s.Mixes {
		for _, arch := range archs {
			for _, pol := range policies {
				for _, seed := range seeds {
					out = append(out, JobSpec{
						Mix: mix, Arch: arch, Policy: pol, Seed: seed,
						Cores: s.Cores, Instr: s.Instr, Warm: s.Warm, Quick: s.Quick,
						Sampled: s.Sampled,
					})
				}
			}
		}
	}
	return out
}

// Sweep is one submitted spec as persisted in the sweeps store. Only the
// exported JSON fields are on disk; Jobs is derived from Spec on load.
type Sweep struct {
	ID        int64     `json:"id"`
	Spec      SweepSpec `json:"spec"`
	Submitted time.Time `json:"submitted"`
	// Cancelled is set by DELETE /jobs/{id}, which rewrites the entry: the
	// sweep's jobs that have not started never will, in this process or
	// after a restart.
	Cancelled bool `json:"cancelled,omitempty"`

	Jobs []Job `json:"-"`
}

// Job is one expanded unit of work. Its ID follows from sweep order and
// Expand order (sweep 1 holds jobs 1..n, sweep 2 continues at n+1), so it
// is stable across restarts without being stored anywhere.
type Job struct {
	ID      int64   `json:"id"`
	SweepID int64   `json:"sweep"`
	Spec    JobSpec `json:"spec"`
	// Key addresses the job's outcome in the result store; identical specs
	// share a key, which is what makes completed work reusable across
	// sweeps, clients and crashes.
	Key string `json:"key"`
}

// Corr is the job's correlation ID, "s<sweep>-j<job>". It appears in every
// log record, trace event and flight dump about the job; grep one corr
// value to reconstruct a job's lifecycle.
func (j Job) Corr() string {
	return fmt.Sprintf("s%d-j%d", j.SweepID, j.ID)
}

// JobSnapshot is the JSON view of a job: its identity plus its derived
// state, and the error of a failed one.
type JobSnapshot struct {
	Job
	Corr  string `json:"corr"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// SweepSnapshot is the JSON view of a sweep served by GET /jobs/{id}.
type SweepSnapshot struct {
	ID        int64          `json:"id"`
	Submitted string         `json:"submitted"`
	Cancelled bool           `json:"cancelled,omitempty"`
	Total     int            `json:"total"`
	Counts    map[string]int `json:"counts"`
	Spec      SweepSpec      `json:"spec"`
	// Jobs is only populated on the detail view.
	Jobs []JobSnapshot `json:"jobs,omitempty"`
}
