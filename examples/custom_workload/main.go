// Custom workload: author a new synthetic application spec and evaluate how
// much DAP helps it across the three memory-side cache architectures. The
// spec below models a key-value-store-like service: a hot index with heavy
// temporal locality, a large sparsely-used record heap (poor sector
// utilization, like omnetpp), and a moderate write rate from updates.
package main

import (
	"fmt"

	"dap"
)

func main() {
	kv := dap.Spec{
		Name:          "kvstore",
		FootprintMB:   8,    // record heap per core (64x scaled)
		HotMB:         1,    // index
		HotFrac:       0.35, // index lookups
		ChaseFrac:     0.10, // bucket-chain walks serialize
		WriteFrac:     0.25, // updates
		MemPerKilo:    30,
		Burstiness:    0.5,
		SectorDensity: 0.25, // records scattered within pages
		SkewAlpha:     2.5,  // Zipfian keys
	}

	archs := []struct {
		name string
		a    dap.Architecture
	}{
		{"sectored DRAM$", dap.SectoredDRAMCache},
		{"Alloy$", dap.AlloyCache},
		{"eDRAM$", dap.SectoredEDRAM},
	}

	fmt.Printf("workload %q on %d cores\n\n", kv.Name, 8)
	fmt.Printf("%-16s %10s %10s %8s %10s %10s\n",
		"architecture", "base IPC", "DAP IPC", "gain", "hit(base)", "CAS(dap)")
	for _, ar := range archs {
		cfg := dap.QuickConfig()
		cfg.Arch = ar.a
		mix := dap.CustomRate(kv, cfg.CPU.Cores)
		base := dap.Run(cfg, mix)
		cfg.Policy = dap.PolicyDAP
		d := dap.Run(cfg, mix)
		fmt.Printf("%-16s %10.3f %10.3f %7.1f%% %10.3f %10.3f\n",
			ar.name, base.AggregateIPC(), d.AggregateIPC(), (d.AggregateIPC()/base.AggregateIPC()-1)*100,
			base.MemSide.HitRatio(), d.MainMemCASFraction())
	}

	fmt.Println("\nAuthor your own dap.Spec to explore where access partitioning")
	fmt.Println("pays off: it needs a saturated cache and idle memory bandwidth.")
}
