package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"dap/internal/faultinject"
	"dap/internal/sim"
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
// asserts the run keeps its postmortem: a bounded flight recording that
// ends with the abort, periodic samples showing the frozen system, and a
// watchdog StallError carrying the engine snapshot.
func TestFlightRecorderCapturesStall(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		cfg := hardenConfig()
		cfg.Policy = DAP
		cfg.WatchdogEvents = 10_000
		cfg.Faults = &faultinject.Plan{DropReadEvery: 1, DropReadAfter: 1000}
		cfg.Observe.Flight = true

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

		var stall *sim.StallError
		if !errors.As(err, &stall) {
			t.Fatalf("abort is %T (%v), want *sim.StallError", err, err)
		}
		if !strings.Contains(stall.Snapshot, "queued") {
			t.Errorf("stall snapshot missing engine state: %q", stall.Snapshot)
		}
	})
}
