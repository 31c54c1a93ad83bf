// Quickstart: run the paper's headline experiment on one workload — the
// baseline sectored DRAM cache against DAP — and print what changed:
// weighted throughput, the main-memory CAS fraction (the paper's measure of
// how close the system is to optimal bandwidth partitioning), and the cache
// hit rate DAP deliberately sacrifices.
package main

import (
	"fmt"

	"dap"
)

func main() {
	const name = "libquantum"
	cfg := dap.QuickConfig() // shortened runs; use DefaultConfig for full length
	mix := dap.RateWorkload(name, cfg.CPU.Cores)

	base := dap.Run(cfg, mix)

	cfg.Policy = dap.PolicyDAP
	withDAP := dap.Run(cfg, mix)

	optimal := dap.OptimalFractions([]float64{102.4, 38.4})[1]
	fmt.Printf("workload: %s (rate-%d)\n\n", name, cfg.CPU.Cores)
	fmt.Printf("%-28s %10s %10s\n", "", "baseline", "DAP")
	fmt.Printf("%-28s %10.3f %10.3f\n", "aggregate IPC", base.AggregateIPC(), withDAP.AggregateIPC())
	fmt.Printf("%-28s %10.3f %10.3f\n", "MS$ hit ratio", base.MemSide.HitRatio(), withDAP.MemSide.HitRatio())
	fmt.Printf("%-28s %10.3f %10.3f   (optimal %.3f)\n", "main-memory CAS fraction",
		base.MainMemCASFraction(), withDAP.MainMemCASFraction(), optimal)
	fmt.Printf("%-28s %10.1f %10.1f\n", "delivered GB/s", base.DeliveredGBps, withDAP.DeliveredGBps)
	fmt.Printf("\nspeedup: %.1f%%\n", (withDAP.AggregateIPC()/base.AggregateIPC()-1)*100)

	f, w, i, s := withDAP.DAP.Fractions()
	fmt.Printf("DAP decisions: %d (FWB %.0f%% | WB %.0f%% | IFRM %.0f%% | SFRM %.0f%%)\n",
		withDAP.DAP.Total(), f*100, w*100, i*100, s*100)
	fmt.Println("\nDAP trades cache hits for idle main-memory bandwidth: the hit")
	fmt.Println("ratio drops, the CAS fraction approaches the optimal split, and")
	fmt.Println("delivered bandwidth (hence throughput) rises.")
}
