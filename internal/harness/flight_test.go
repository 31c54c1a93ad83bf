package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"reflect"
	"strings"
	"testing"

	"dap/internal/faultinject"
	"dap/internal/obs"
	"dap/internal/sweep"
)

// TestObservabilityIsBitIdenticalWithFlight extends the bit-identity
// guarantee to the flight recorder: a run with the black box on (alongside
// the tracer and sampler) must produce exactly the same stats.Run as a bare
// run, while still recording flight entries.
func TestObservabilityIsBitIdenticalWithFlight(t *testing.T) {
	mix := traceableMix(4)
	base := obsTestConfig()
	base.CPU.Cores = 4

	inst := base
	inst.Observe = Observe{Flight: true, TraceEvery: 1, MetricsEvery: 5_000}

	plain := RunMix(base, mix)
	flown := RunMix(inst, mix)
	if plain.Abort != nil || flown.Abort != nil {
		t.Fatalf("aborted runs: plain=%v flight=%v", plain.Abort, flown.Abort)
	}
	if !reflect.DeepEqual(plain.Run, flown.Run) {
		t.Errorf("stats.Run differs with flight recorder enabled")
		if plain.Cycles != flown.Cycles {
			t.Errorf("cycles: plain=%d flight=%d", plain.Cycles, flown.Cycles)
		}
	}
	if flown.Flight == nil || flown.Flight.Len() == 0 {
		t.Fatal("flight recorder captured nothing")
	}
	entries := flown.Flight.Entries()
	if !strings.HasPrefix(entries[0].Note, "measure-start") {
		t.Errorf("first entry is %q, want measure-start", entries[0].Note)
	}
	if last := entries[len(entries)-1].Note; last != "run-complete" {
		t.Errorf("last entry is %q, want run-complete", last)
	}
	if plain.Flight != nil {
		t.Error("uninstrumented run has a flight recorder")
	}
}

// TestFlightRecorderCapturesStall faultinjects a DRAM-drop stall and
// asserts the flight recorder's dump carries the failure: bounded entries,
// the watchdog reason, the engine snapshot, and periodic samples showing
// the frozen system. Full and sampled runs must both keep the recording.
func TestFlightRecorderCapturesStall(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		t.Run(map[bool]string{false: "full", true: "sampled"}[sampled], func(t *testing.T) {
			cfg := hardenConfig()
			cfg.Policy = DAP
			cfg.WatchdogEvents = 10_000
			cfg.Faults = &faultinject.Plan{DropReadEvery: 1, DropReadAfter: 1000}
			cfg.Observe.Flight = true
			cfg.Sampled = sampled

			r, err := RunMixE(cfg, quickMix())
			if err == nil {
				t.Fatal("run with every read response dropped completed normally")
			}
			if r.Flight == nil {
				t.Fatal("aborted run has no flight recording")
			}
			if n := r.Flight.Len(); n == 0 || n > 256 {
				t.Fatalf("flight ring has %d entries, want 1..256", n)
			}
			entries := r.Flight.Entries()
			if last := entries[len(entries)-1].Note; !strings.HasPrefix(last, "run-aborted") {
				t.Errorf("last entry is %q, want run-aborted", last)
			}
			var periodic int
			for _, e := range entries {
				if strings.HasPrefix(e.Note, "pending=") {
					periodic++
				}
			}
			// The stride is a 64th of the watchdog deadline, so the stall
			// alone leaves dozens of samples.
			if periodic < 32 {
				t.Errorf("%d periodic samples in the flight ring, want at least 32", periodic)
			}

			reason, snap := classifyAbort(err)
			if reason != "watchdog-stall" {
				t.Fatalf("classifyAbort reason = %q, want watchdog-stall", reason)
			}
			dump := r.Flight.Dump(reason, snap)
			if dump.Snapshot == "" || !strings.Contains(dump.Snapshot, "queued") {
				t.Errorf("dump snapshot missing engine state: %q", dump.Snapshot)
			}
			if _, err := json.Marshal(dump); err != nil {
				t.Fatalf("dump not serializable: %v", err)
			}
		})
	}
}

// TestSweepExecutorWrapsFlightError runs a doomed job spec through the
// service executor and asserts the abort comes back as an *obs.FlightError
// whose dump is stamped with the job's correlation ID and store key — the
// contract the sweep service's postmortem path relies on.
func TestSweepExecutorWrapsFlightError(t *testing.T) {
	spec := sweep.JobSpec{
		Mix: "mcf", Arch: "sectored", Policy: "dap",
		Cores: 2, Instr: 150_000, Warm: 60_000, Quick: true,
	}
	// No public knob injects faults through a JobSpec, so exercise the same
	// path sweepConfig feeds: resolve, poison, run.
	cfg, mix, err := sweepConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Observe.Flight {
		t.Fatal("sweepConfig did not enable the flight recorder")
	}
	cfg.WatchdogEvents = 10_000
	cfg.Faults = &faultinject.Plan{DropReadEvery: 1, DropReadAfter: 1000}
	res, runErr := RunMixE(cfg, mix)
	if runErr == nil {
		t.Fatal("poisoned run completed normally")
	}
	reason, snap := classifyAbort(runErr)
	dump := res.Flight.Dump(reason, snap)
	dump.Corr = "s1-j1"
	dump.Key = SweepKey(spec)
	fe := &obs.FlightError{Dump: dump, Err: runErr}

	var got *obs.FlightError
	if !errors.As(error(fe), &got) {
		t.Fatal("FlightError lost through errors.As")
	}
	if got.Dump.Corr != "s1-j1" || got.Dump.Key == "" || got.Dump.Reason != "watchdog-stall" {
		t.Fatalf("dump context = %+v", got.Dump)
	}
}

// TestSweepExecutorLogsWithCorr runs one real job through SweepExecutorCkpt(nil)
// with a capture logger on the context and asserts the start and done
// records both carry the correlation ID.
func TestSweepExecutorLogsWithCorr(t *testing.T) {
	var buf bytes.Buffer
	ctx := obs.WithLogger(obs.WithCorr(context.Background(), "s7-j9"),
		slog.New(slog.NewJSONHandler(&buf, nil)))
	spec := sweep.JobSpec{
		Mix: "mcf", Arch: "sectored", Policy: "baseline",
		Cores: 1, Instr: 60_000, Warm: 30_000, Quick: true,
	}
	payload, err := SweepExecutorCkpt(nil)(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"agg_ipc"`)) {
		t.Fatalf("payload missing agg_ipc: %s", payload)
	}
	logs := buf.String()
	if strings.Count(logs, `"corr":"s7-j9"`) < 2 {
		t.Fatalf("expected start+done records stamped with corr, got:\n%s", logs)
	}
	if !strings.Contains(logs, "simulation start") || !strings.Contains(logs, "simulation done") {
		t.Fatalf("missing lifecycle records:\n%s", logs)
	}
}
