// Package faultinject deterministically perturbs a running simulation so
// tests can prove the hardening layer detects each failure class: dropped
// DRAM responses wedge MSHRs (the forward-progress watchdog must trip),
// delayed metadata fetches stretch the tag path (the run must still
// complete, just slower), and corrupted DAP credit updates violate the
// credit invariants (the runtime auditor must report them).
//
// Every decision is a pure function of the plan and per-kind arrival
// counters — the seed only phase-shifts which arrivals are hit — so a
// faulted run is exactly as reproducible as a healthy one.
package faultinject

import (
	"fmt"
	"os"

	"dap/internal/dram"
	"dap/internal/mem"
)

// Plan schedules the faults to inject. The zero Plan injects nothing.
type Plan struct {
	// Seed phase-shifts the periodic selectors below; two plans that differ
	// only in seed hit different (but still deterministic) arrivals.
	Seed uint64

	// DropReadEvery drops the response of every Nth demand read reaching a
	// device (1 = every read). The access still occupies the data bus — the
	// bandwidth is spent, the data never arrives — so a waiting MSHR never
	// retires. 0 disables.
	DropReadEvery uint64
	// DropReadAfter delays the onset: the first DropReadAfter demand reads
	// are delivered normally (lets a run warm up before wedging).
	DropReadAfter uint64

	// DelayMetaEvery delays the completion of every Nth metadata fetch by
	// DelayMetaCycles (both must be non-zero to take effect).
	DelayMetaEvery  uint64
	DelayMetaCycles mem.Cycle

	// CorruptCreditsAt, when non-zero, corrupts every DAP credit counter by
	// CorruptCreditsBy (bypassing the saturating clamp) that many cycles
	// into the measured region.
	CorruptCreditsAt mem.Cycle
	CorruptCreditsBy int64
}

// Validate rejects self-contradictory plans.
func (p *Plan) Validate() error {
	if p.DelayMetaEvery > 0 && p.DelayMetaCycles == 0 {
		return fmt.Errorf("faultinject: DelayMetaEvery set but DelayMetaCycles is zero")
	}
	if p.CorruptCreditsAt > 0 && p.CorruptCreditsBy == 0 {
		return fmt.Errorf("faultinject: CorruptCreditsAt set but CorruptCreditsBy is zero")
	}
	return nil
}

// Injector executes a Plan. One injector may serve several devices; its
// counters observe the merged arrival order, which the deterministic event
// engine makes reproducible.
type Injector struct {
	plan  Plan
	reads uint64
	metas uint64

	// Injection counts, for diagnostics and test assertions.
	Dropped   uint64
	Delayed   uint64
	Corrupted uint64
}

// New builds an injector for the plan.
func New(plan Plan) *Injector { return &Injector{plan: plan} }

// Plan returns the plan being executed.
func (i *Injector) Plan() Plan { return i.plan }

// DeviceHook returns the dram.FaultHook implementing the plan's response
// dropping and metadata delays. Attach it to every device the plan should
// perturb (typically both main memory and the cache array).
func (i *Injector) DeviceHook() dram.FaultHook {
	return func(k mem.Kind) dram.FaultAction {
		switch k {
		case mem.ReadKind:
			if every := i.plan.DropReadEvery; every > 0 {
				n := i.reads
				i.reads++
				if n >= i.plan.DropReadAfter && (n-i.plan.DropReadAfter+i.plan.Seed)%every == 0 {
					i.Dropped++
					return dram.FaultAction{DropResponse: true}
				}
			}
		case mem.MetaReadKind:
			if every := i.plan.DelayMetaEvery; every > 0 && i.plan.DelayMetaCycles > 0 {
				n := i.metas
				i.metas++
				if (n+i.plan.Seed)%every == 0 {
					i.Delayed++
					return dram.FaultAction{ExtraDelay: i.plan.DelayMetaCycles}
				}
			}
		}
		return dram.FaultAction{}
	}
}

// CreditCorrupter is implemented by core.DAP: the harness uses it to arm
// the plan's credit corruption without importing the core package here.
type CreditCorrupter interface {
	InjectCreditFault(delta int64)
}

// ArmCreditFault schedules the plan's credit corruption on schedule (an
// After-style scheduler, typically sim.Engine.After bound at the start of
// the measured region). It is a no-op when the plan has none configured.
func (i *Injector) ArmCreditFault(schedule func(delay mem.Cycle, fn func()), target CreditCorrupter) {
	if i.plan.CorruptCreditsAt == 0 || target == nil {
		return
	}
	schedule(i.plan.CorruptCreditsAt, func() {
		i.Corrupted++
		target.InjectCreditFault(i.plan.CorruptCreditsBy)
	})
}

// String summarizes the injections performed so far.
func (i *Injector) String() string {
	return fmt.Sprintf("faults injected: %d responses dropped, %d metadata fetches delayed, %d credit corruptions",
		i.Dropped, i.Delayed, i.Corrupted)
}

// TruncateTail simulates a torn write by cutting the last n bytes off a
// file (clamped at emptying it) — the shape a crash mid-append leaves
// behind.
func TruncateTail(path string, n int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := info.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// FlipByte simulates silent media corruption by XOR-flipping one byte at
// offset (negative offsets count from the end).
func FlipByte(path string, offset int64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return fmt.Errorf("faultinject: %s is empty", path)
	}
	if offset < 0 {
		offset += int64(len(raw))
	}
	if offset < 0 || offset >= int64(len(raw)) {
		return fmt.Errorf("faultinject: offset %d outside %s (%d bytes)", offset, path, len(raw))
	}
	raw[offset] ^= 0xff
	return os.WriteFile(path, raw, 0o644)
}
