package harness

import (
	"testing"

	"dap/internal/workload"
)

// TestPoolingUnderParallelRuns is the pool-safety concurrency test: the
// controller and core continuation free lists introduced by the
// allocation-free hot path are strictly per-engine, so concurrent
// simulations must never share a record. Running replicated seeds of all
// three architectures with eight workers gives the race detector (make
// race, make runner-race) a chance to catch any pooled state that leaked
// across engines. Parallel results must stay bit-identical to serial ones:
// pooling only recycles memory, it must never change recycling-visible
// order.
func TestPoolingUnderParallelRuns(t *testing.T) {
	cfg := Quick()
	cfg.WarmAccesses = 8_000
	cfg.MeasureInstr = 12_000
	cfg.Policy = DAP
	spec, _ := workload.ByName("mcf")
	mix := workload.RateMix(spec, cfg.CPU.Cores)
	seeds := 8
	if raceEnabled {
		seeds = 4 // the detector's ~10x tax; 4 concurrent runs still overlap
	}
	ipc := func(r Result) float64 {
		var sum float64
		for i := range r.Cores {
			sum += r.Cores[i].IPC()
		}
		return sum
	}
	for _, arch := range []Arch{SectoredDRAM, AlloyCache, SectoredEDRAM} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			c := cfg
			c.Arch = arch
			par, _, _, err := ReplicateParallel(8, c, mix, seeds, ipc)
			if err != nil {
				t.Fatal(err)
			}
			ser, _, _, err := ReplicateParallel(1, c, mix, seeds, ipc)
			if err != nil {
				t.Fatal(err)
			}
			for i := range par {
				if par[i] != ser[i] {
					t.Fatalf("seed %d: parallel IPC %v != serial IPC %v — pooled state bled across runs",
						i, par[i], ser[i])
				}
			}
		})
	}
}
