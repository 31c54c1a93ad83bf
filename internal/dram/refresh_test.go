package dram

import (
	"testing"

	"dap/internal/mem"
	"dap/internal/sim"
)

// streamWithConfig measures delivered bandwidth for sequential reads using
// RunUntil (refresh events self-reschedule, so Drain never terminates).
func streamWithConfig(cfg Config, cycles mem.Cycle) float64 {
	eng := sim.New()
	dev := NewDevice(cfg, eng)
	var done uint64
	var addr mem.Addr
	var issue func()
	issue = func() {
		if eng.Now() >= cycles {
			return
		}
		addr += mem.LineBytes
		dev.Access(addr, mem.ReadKind, func(mem.Cycle) {
			done++
			issue()
		})
	}
	for i := 0; i < 128; i++ {
		issue()
	}
	eng.RunUntil(cycles)
	return mem.GBPerSec(done*mem.LineBytes, cycles)
}

func TestRefreshCostsBandwidth(t *testing.T) {
	const cycles = 2_000_000
	without := streamWithConfig(DDR4_2400(), cycles)
	with := streamWithConfig(DDR4_2400().EnableRefresh(), cycles)
	if with >= without {
		t.Fatalf("refresh must cost bandwidth: %.2f vs %.2f GB/s", with, without)
	}
	loss := 1 - with/without
	// tRFC/tREFI = 350ns/7800ns ~ 4.5%
	if loss < 0.01 || loss > 0.10 {
		t.Fatalf("refresh loss = %.1f%%, want ~2-6%%", loss*100)
	}
}

func TestRefreshCountsRecorded(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(DDR4_2400().EnableRefresh(), eng)
	dev.Access(0, mem.ReadKind, nil)
	eng.RunUntil(500_000)
	if dev.Stats().Refreshes == 0 {
		t.Fatal("refreshes must be counted")
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(DDR4_2400(), eng)
	eng.RunUntil(1_000_000)
	if dev.Stats().Refreshes != 0 {
		t.Fatal("refresh must default off (the paper assumes no maintenance)")
	}
	if eng.Pending() != 0 {
		t.Fatal("no periodic events must linger when refresh is off")
	}
}

func TestEnableRefreshTimings(t *testing.T) {
	c := DDR4_2400().EnableRefresh()
	// 7.8us at 1200 MHz = 9360 device clocks; 350ns = 420
	if c.RefreshInterval != 9360 || c.RefreshCycles != 420 {
		t.Fatalf("refresh timings = %d/%d, want 9360/420", c.RefreshInterval, c.RefreshCycles)
	}
}
