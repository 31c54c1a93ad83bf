package harness

import (
	"errors"
	"strings"
	"testing"

	"dap/internal/check"
	"dap/internal/faultinject"
	"dap/internal/sim"
	"dap/internal/workload"
)

// hardenConfig is a shortened configuration for the fault-injection tests:
// long enough to reach steady state, short enough to keep the suite fast.
func hardenConfig() Config {
	cfg := Quick()
	cfg.WarmAccesses = 60_000
	cfg.MeasureInstr = 150_000
	return cfg
}

// TestWatchdogDetectsWedgedMSHR: dropping every DRAM read response wedges
// all core MSHRs. Under DAP the window timer keeps the event queue alive, so
// only the forward-progress watchdog can notice — the run must abort with a
// diagnostic snapshot rather than spin to the cycle limit.
func TestWatchdogDetectsWedgedMSHR(t *testing.T) {
	cfg := hardenConfig()
	cfg.Policy = DAP
	cfg.WatchdogEvents = 10_000
	cfg.Faults = &faultinject.Plan{DropReadEvery: 1, DropReadAfter: 1000}

	r, err := RunMixE(cfg, quickMix())
	if err == nil {
		t.Fatal("run with every read response dropped completed normally")
	}
	var stall *sim.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("expected *sim.StallError, got %T: %v", err, err)
	}
	if stall.Snapshot == "" {
		t.Fatal("stall diagnostic has no snapshot")
	}
	for _, want := range []string{"core", "queued", "responses dropped"} {
		if !strings.Contains(stall.Snapshot, want) {
			t.Errorf("snapshot missing %q:\n%s", want, stall.Snapshot)
		}
	}
	if r.Abort == nil {
		t.Fatal("Result.Abort not set on aborted run")
	}
}

// TestDeadlockDetectedWhenQueueDrains: under the baseline policy there is no
// periodic timer, so a fully wedged system drains the event queue instead of
// spinning — the harness must report that as a stall too, not return a
// fictitious result.
func TestDeadlockDetectedWhenQueueDrains(t *testing.T) {
	cfg := hardenConfig()
	cfg.Faults = &faultinject.Plan{DropReadEvery: 1, DropReadAfter: 1000}

	_, err := RunMixE(cfg, quickMix())
	var stall *sim.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("expected *sim.StallError, got %T: %v", err, err)
	}
	if stall.Pending != 0 {
		t.Fatalf("deadlock diagnostic claims %d pending events", stall.Pending)
	}
	if !strings.Contains(stall.Snapshot, "mshr") {
		t.Errorf("snapshot does not show MSHR state:\n%s", stall.Snapshot)
	}
}

// TestAuditorDetectsCorruptedCredits: a corrupted DAP credit update must be
// caught by the runtime auditor within one audit window, with cycle context.
// The audit window is set below the 64-cycle DAP window so the next credit
// recomputation cannot paper over the corruption first.
func TestAuditorDetectsCorruptedCredits(t *testing.T) {
	cfg := hardenConfig()
	cfg.Policy = DAP
	cfg.Audit = true
	cfg.AuditEvery = 16
	cfg.Faults = &faultinject.Plan{CorruptCreditsAt: 100_001, CorruptCreditsBy: -(1 << 40)}

	_, err := RunMixE(cfg, quickMix())
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("expected *AuditError, got %T: %v", err, err)
	}
	if ae.Check != "dap-credits" {
		t.Fatalf("wrong check caught the corruption: %v", ae)
	}
	if ae.Cycle < 100_001 || ae.Cycle > 100_001+64 {
		t.Fatalf("violation cycle %d not within one window of the corruption at 100001", ae.Cycle)
	}
}

// TestDelayedMetadataCompletes: delaying every metadata fetch must slow the
// run down, not wedge it — the watchdog and auditor stay quiet.
func TestDelayedMetadataCompletes(t *testing.T) {
	cfg := hardenConfig()
	cfg.Audit = true
	base := RunMix(cfg, quickMix())
	if base.Abort != nil {
		t.Fatalf("healthy run aborted: %v", base.Abort)
	}

	cfg.Faults = &faultinject.Plan{DelayMetaEvery: 1, DelayMetaCycles: 500}
	slow, err := RunMixE(cfg, quickMix())
	if err != nil {
		t.Fatalf("delayed-metadata run aborted: %v", err)
	}
	if slow.Cycles <= base.Cycles {
		t.Fatalf("delaying every metadata fetch did not cost cycles: %d vs %d", slow.Cycles, base.Cycles)
	}
}

// TestAuditModeIsNonPerturbing: the auditor observes, never steers — a run
// with audit enabled must be bit-identical to the same run without, and
// reproducible across repetitions.
func TestAuditModeIsNonPerturbing(t *testing.T) {
	cfg := hardenConfig()
	cfg.Policy = DAP
	plain := RunMix(cfg, quickMix())

	cfg.Audit = true
	a := RunMix(cfg, quickMix())
	b := RunMix(cfg, quickMix())
	for _, r := range []Result{a, b} {
		if r.Abort != nil {
			t.Fatalf("audited healthy run aborted: %v", r.Abort)
		}
		if r.Cycles != plain.Cycles || r.MSCacheCAS != plain.MSCacheCAS || r.MainMemCAS != plain.MainMemCAS {
			t.Fatalf("audit mode perturbed the run: cycles %d vs %d, CAS %d/%d vs %d/%d",
				r.Cycles, plain.Cycles, r.MSCacheCAS, r.MainMemCAS, plain.MSCacheCAS, plain.MainMemCAS)
		}
	}
	for i := range a.Cores {
		if a.Cores[i].Instructions != b.Cores[i].Instructions || a.Cores[i].Cycles != b.Cores[i].Cycles {
			t.Fatalf("audited runs diverged on core %d", i)
		}
	}
}

// TestAuditedAlloyRuns: the Alloy metadata audit (DBC bits cover every
// dirty set; dirty and reused bits only on valid sets) holds through whole
// audited runs, with BEAR off and on, under the baseline and DAP, on a
// pointer-chasing mix and a store-heavy one.
func TestAuditedAlloyRuns(t *testing.T) {
	for _, name := range []string{"mcf", "parboil-lbm"} {
		spec, _ := workload.ByName(name)
		mix := workload.RateMix(spec, 8)
		for _, bear := range []bool{false, true} {
			for _, pol := range []Policy{Baseline, DAP} {
				cfg := hardenConfig()
				cfg.Arch = AlloyCache
				cfg.Alloy.BEAR = bear
				cfg.Policy = pol
				cfg.Audit = true
				if _, err := RunSeededCkptE(cfg, mix, 0, quickCkpt); err != nil {
					t.Errorf("%s BEAR=%v %v: %v", name, bear, pol, err)
				}
			}
		}
	}
}

// TestConfigValidation: a broken configuration is rejected before any
// construction, with one diagnostic per problem and dotted field paths into
// the sub-configurations.
func TestConfigValidation(t *testing.T) {
	if err := func() error { c := Quick(); return c.Validate() }(); err != nil {
		t.Fatalf("Quick config invalid: %v", err)
	}
	if err := func() error { c := Default(); return c.Validate() }(); err != nil {
		t.Fatalf("Default config invalid: %v", err)
	}

	cfg := Quick()
	cfg.CPU.Cores = 0                                 // nested CPU problem
	cfg.CPU.L3Ways = 17                               // more ways than an SRAM set ranks
	cfg.MainMemory.Channels = 0                       // nested DRAM problem
	cfg.MeasureInstr = 0                              // harness-level problem
	cfg.Arch = AlloyCache                             // SBD needs the sectored cache
	cfg.Policy = SBD                                  //
	cfg.Faults = &faultinject.Plan{DelayMetaEvery: 3} // half-configured fault
	cfg.Observe.TraceEvery = -1                       // negative tracing stride

	err := cfg.Validate()
	var es check.Errors
	if !errors.As(err, &es) {
		t.Fatalf("expected check.Errors, got %T: %v", err, err)
	}
	if len(es) < 7 {
		t.Fatalf("expected at least 7 diagnostics, got %d:\n%v", len(es), err)
	}
	wantFields := []string{"CPU.Cores", "CPU.L3Ways", "MainMemory.Channels", "MeasureInstr", "Policy", "Faults", "Observe.TraceEvery"}
	for _, f := range wantFields {
		found := false
		for _, e := range es {
			if strings.HasPrefix(e.Field, f) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic for %s in:\n%v", f, err)
		}
	}

	if _, err := RunSeededCkptE(cfg, quickMix(), 0, MemCheckpoints()); err == nil {
		t.Fatal("RunSeededCkptE accepted an invalid config")
	}
	if _, err := RunMixE(cfg, quickMix()); err == nil {
		t.Fatal("RunMixE accepted an invalid config")
	}

	// SRAM arrays whose entries do not divide into whole sets, and zero
	// sizes of structures that are on: each is one diagnostic on its own
	// field.
	for _, tc := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"Alloy.DBCWays", func(c *Config) { c.Arch, c.Alloy.DBCEntries, c.Alloy.DBCWays = AlloyCache, 0, 0 }},
		{"Alloy.DBCEntries", func(c *Config) { c.Arch, c.Alloy.DBCEntries = AlloyCache, 0 }},
		{"Alloy.DBCEntries", func(c *Config) { c.Arch, c.Alloy.DBCEntries, c.Alloy.DBCWays = AlloyCache, 6, 4 }},
		{"Sectored.TagCacheEntries", func(c *Config) { c.Sectored.TagCacheEntries, c.Sectored.TagCacheWays = 6, 4 }},
		{"Sectored.FootprintEntries", func(c *Config) { c.Sectored.FootprintEntries = 0 }},
		{"CPU.PFOutstanding", func(c *Config) { c.CPU.PFOutstanding = 0 }},
	} {
		c := Quick()
		tc.mutate(&c)
		var es check.Errors
		if err := c.Validate(); !errors.As(err, &es) || len(es) != 1 || es[0].Field != tc.field {
			t.Errorf("want one diagnostic for %s, got %v", tc.field, err)
		}
	}
}

// TestReplicateReportsFailedReplicas: replicated runs pass the same checks
// as a single run. An invalid configuration and a watchdog-aborted replica
// each return their error and no values, rather than statistics over runs
// that never completed.
func TestReplicateReportsFailedReplicas(t *testing.T) {
	ipc := func(r Result) float64 { return r.AggregateIPC() }

	bad := Quick()
	bad.CPU.Cores = 0
	vals, _, _, err := ReplicateParallel(2, bad, quickMix(), 2, ipc)
	var es check.Errors
	if !errors.As(err, &es) || vals != nil {
		t.Fatalf("invalid config: values %v, error %v; want a validation error and no values", vals, err)
	}

	wedged := hardenConfig()
	wedged.Policy = DAP
	wedged.WatchdogEvents = 1
	vals, _, _, err = ReplicateParallel(2, wedged, quickMix(), 2, ipc)
	var stall *sim.StallError
	if !errors.As(err, &stall) || vals != nil {
		t.Fatalf("aborted replicas: values %v, error %v; want a *sim.StallError and no values", vals, err)
	}
}

// TestWatchdogDisabled: a negative deadline turns the watchdog off — the
// wedged run then exhausts MaxCycles instead (legacy behavior, kept
// reachable on purpose for debugging the watchdog itself).
func TestWatchdogDisabled(t *testing.T) {
	cfg := hardenConfig()
	cfg.Policy = DAP
	cfg.WatchdogEvents = -1
	cfg.MaxCycles = 2_000_000 // keep the spin short
	cfg.Faults = &faultinject.Plan{DropReadEvery: 1, DropReadAfter: 1000}

	r := RunMix(cfg, quickMix())
	var stall *sim.StallError
	if errors.As(r.Abort, &stall) && stall.Pending > 0 {
		t.Fatalf("watchdog fired while disabled: %v", r.Abort)
	}
	if r.Cycles < 2_000_000 {
		t.Fatalf("disabled watchdog still cut the run short at %d cycles", r.Cycles)
	}
}
