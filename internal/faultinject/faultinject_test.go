package faultinject

import (
	"testing"

	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/sim"
)

// TestDropReadDeterministic: the same plan must drop exactly the same
// arrivals on every run, honoring onset and period.
func TestDropReadDeterministic(t *testing.T) {
	run := func() []bool {
		inj := New(Plan{DropReadEvery: 3, DropReadAfter: 2})
		hook := inj.DeviceHook()
		var dropped []bool
		for n := 0; n < 12; n++ {
			act := hook(mem.ReadKind)
			dropped = append(dropped, act.DropResponse)
		}
		return dropped
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at read %d", i)
		}
	}
	// onset after 2, then every 3rd: reads 2, 5, 8, 11
	want := map[int]bool{2: true, 5: true, 8: true, 11: true}
	for i, d := range a {
		if d != want[i] {
			t.Fatalf("read %d: dropped=%v, want %v (pattern %v)", i, d, want[i], a)
		}
	}
}

// TestSeedShiftsPhase: a different seed hits different arrivals but keeps
// the same drop rate.
func TestSeedShiftsPhase(t *testing.T) {
	pattern := func(seed uint64) (drops []int) {
		inj := New(Plan{Seed: seed, DropReadEvery: 4})
		hook := inj.DeviceHook()
		for n := 0; n < 16; n++ {
			if hook(mem.ReadKind).DropResponse {
				drops = append(drops, n)
			}
		}
		return drops
	}
	a, b := pattern(0), pattern(1)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("drop rate changed with seed: %v vs %v", a, b)
	}
	if a[0] == b[0] {
		t.Fatalf("seed did not shift the phase: %v vs %v", a, b)
	}
}

// TestMetaDelayOnly: metadata fetches are delayed, demand reads untouched,
// and other kinds ignored entirely.
func TestMetaDelayOnly(t *testing.T) {
	inj := New(Plan{DelayMetaEvery: 1, DelayMetaCycles: 50})
	hook := inj.DeviceHook()
	if act := hook(mem.MetaReadKind); act.ExtraDelay != 50 || act.DropResponse {
		t.Fatalf("meta fetch not delayed: %+v", act)
	}
	if act := hook(mem.ReadKind); act != (dram.FaultAction{}) {
		t.Fatalf("demand read perturbed: %+v", act)
	}
	if act := hook(mem.WritebackKind); act != (dram.FaultAction{}) {
		t.Fatalf("writeback perturbed: %+v", act)
	}
	if inj.Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", inj.Delayed)
	}
}

// TestDeviceDropsResponse: a dropped response spends the bandwidth but
// never invokes Done; a delayed one invokes Done late.
func TestDeviceDropsResponse(t *testing.T) {
	eng := sim.New()
	dev := dram.NewDevice(dram.DDR4_2400(), eng)
	inj := New(Plan{DropReadEvery: 2}) // drop reads 0, 2, ...
	dev.Fault = inj.DeviceHook()

	completions := 0
	for n := 0; n < 4; n++ {
		dev.Access(mem.Addr(n*4096), mem.ReadKind, func(mem.Cycle) { completions++ })
	}
	eng.Drain()
	if completions != 2 {
		t.Fatalf("completions = %d, want 2 (two of four responses dropped)", completions)
	}
	if inj.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", inj.Dropped)
	}
	st := dev.Stats()
	if st.Reads != 4 {
		t.Fatalf("device performed %d reads, want 4 (dropped responses still cost bandwidth)", st.Reads)
	}
}

// TestDeviceDelaysResponse: ExtraDelay defers the completion by exactly the
// configured number of cycles.
func TestDeviceDelaysResponse(t *testing.T) {
	eng := sim.New()
	base := dram.NewDevice(dram.DDR4_2400(), eng)
	var baseline mem.Cycle
	base.Access(0, mem.MetaReadKind, func(mem.Cycle) { baseline = eng.Now() })
	eng.Drain()

	eng2 := sim.New()
	dev := dram.NewDevice(dram.DDR4_2400(), eng2)
	inj := New(Plan{DelayMetaEvery: 1, DelayMetaCycles: 123})
	dev.Fault = inj.DeviceHook()
	var delayed mem.Cycle
	dev.Access(0, mem.MetaReadKind, func(mem.Cycle) { delayed = eng2.Now() })
	eng2.Drain()

	if delayed != baseline+123 {
		t.Fatalf("delayed completion at %d, want %d + 123", delayed, baseline)
	}
}

// TestArmCreditFault: the corruption fires once at the configured delay.
type fakeDAP struct{ delta int64 }

func (f *fakeDAP) InjectCreditFault(d int64) { f.delta += d }

func TestArmCreditFault(t *testing.T) {
	eng := sim.New()
	inj := New(Plan{CorruptCreditsAt: 500, CorruptCreditsBy: -77})
	var target fakeDAP
	inj.ArmCreditFault(eng.After, &target)
	eng.RunUntil(499)
	if target.delta != 0 {
		t.Fatalf("corruption fired early: %d", target.delta)
	}
	eng.RunUntil(2000)
	if target.delta != -77 || inj.Corrupted != 1 {
		t.Fatalf("corruption not applied exactly once: delta=%d count=%d", target.delta, inj.Corrupted)
	}
}

// TestPlanValidate: half-configured faults are rejected.
func TestPlanValidate(t *testing.T) {
	if (&Plan{}).Validate() != nil {
		t.Fatal("zero plan rejected")
	}
	if (&Plan{DelayMetaEvery: 2}).Validate() == nil {
		t.Fatal("delay without cycles accepted")
	}
	if (&Plan{CorruptCreditsAt: 10}).Validate() == nil {
		t.Fatal("corruption without delta accepted")
	}
}
