package harness

import (
	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/sim"
)

// KernelArch selects the idealized memory-side cache model of the Figure 1
// bandwidth kernel. As in the paper's motivation experiment, tags are
// assumed on-die and there are no maintenance overheads: the hit rate is an
// input, and the kernel measures the read bandwidth the system delivers.
type KernelArch int

// Kernel architectures.
const (
	KernelDRAMCache KernelArch = iota // one bi-directional HBM channel set
	KernelEDRAM                       // separate eDRAM read and write channel sets
)

// KernelResult is one point of Figure 1.
type KernelResult struct {
	HitRate       float64
	DeliveredGBps float64
}

// BandwidthKernel streams reads through the memory hierarchy at a target
// memory-side cache hit rate and reports the delivered read bandwidth
// (Figure 1). Hits read from the cache array; misses read from main memory
// and fill the cache (on the same channels for the DRAM cache, on the write
// channels for the eDRAM cache).
func BandwidthKernel(arch KernelArch, hitRate float64, outstanding int, duration mem.Cycle) KernelResult {
	eng := sim.New()
	mm := dram.NewDevice(dram.DDR4_2400(), eng)

	var cacheRd, cacheWr *dram.Device
	switch arch {
	case KernelEDRAM:
		cacheRd = dram.NewDevice(dram.EDRAMRead(51.2), eng)
		cacheWr = dram.NewDevice(dram.EDRAMWrite(51.2), eng)
	default:
		dev := dram.NewDevice(dram.HBM102(), eng)
		cacheRd, cacheWr = dev, dev
	}

	if outstanding <= 0 {
		outstanding = 256
	}
	rng := uint64(0x2545f4914f6cdd1d)
	next := func() float64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return float64((rng*0x9e3779b97f4a7c15)>>11) / (1 << 53)
	}

	var completedReads uint64
	var addr mem.Addr
	var issue func()
	issue = func() {
		if eng.Now() >= duration {
			return
		}
		addr += mem.LineBytes // stream sequentially, as the paper kernel does
		a := addr
		if next() < hitRate {
			cacheRd.Access(a, mem.ReadKind, func(mem.Cycle) {
				completedReads++
				issue()
			})
			return
		}
		mm.Access(a, mem.ReadKind, func(mem.Cycle) {
			completedReads++
			cacheWr.Access(a, mem.FillKind, nil)
			issue()
		})
	}
	for i := 0; i < outstanding; i++ {
		issue()
	}
	eng.RunUntil(duration)
	return KernelResult{
		HitRate:       hitRate,
		DeliveredGBps: mem.GBPerSec(completedReads*mem.LineBytes, duration),
	}
}

// Figure1HitRates are the x-axis points of Figure 1.
var Figure1HitRates = []float64{0, 0.25, 0.50, 0.70, 0.90, 1.00}
