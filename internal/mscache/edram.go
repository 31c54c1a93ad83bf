package mscache

import (
	"dap/internal/cache"
	"dap/internal/core"
	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/sim"
)

// EDRAMConfig describes the sectored eDRAM cache (Section VI-C): 1 KB
// sectors, sixteen ways, metadata in on-die SRAM (so no metadata traffic and
// no SFRM), and two independent 51.2 GB/s channel sets — one for reads, one
// for writes — which is what makes its bandwidth behaviour in Figure 1
// qualitatively different from the DRAM cache's.
type EDRAMConfig struct {
	CapacityBytes int
	SectorBytes   int
	Ways          int

	// TagLat is the on-die metadata lookup latency (8 cycles at 4 GHz).
	TagLat mem.Cycle

	// ReadArray and WriteArray are the independent channel sets.
	ReadArray  dram.Config
	WriteArray dram.Config
}

// DefaultEDRAM returns the paper's 256 MB point with 51.2 GB/s read channels
// and 51.2 GB/s write channels. The eDRAM capacity is scaled 8x (not the
// repository's default 64x) so that the footprint:capacity ratio of the
// scaled workloads matches the paper's mid-range eDRAM hit rates; see
// DESIGN.md.
func DefaultEDRAM() EDRAMConfig {
	return EDRAMConfig{
		CapacityBytes: 32 * mem.MiB,
		SectorBytes:   1024,
		Ways:          16,
		TagLat:        8,
		ReadArray:     dram.EDRAMRead(51.2),
		WriteArray:    dram.EDRAMWrite(51.2),
	}
}

// NewEDRAM builds the eDRAM cache: the sectored controller with NRU sector
// tags in on-die SRAM (so no tag cache and no metadata traffic) and no
// footprint prefetcher, reading data and dirty victims from the read
// channel set and filling and writing back through the write channel set.
// Unlike the DRAM cache, fills never steal read bandwidth.
func NewEDRAM(cfg EDRAMConfig, eng *sim.Engine, mm *dram.Device, part core.Partitioner) *Sectored {
	rd := dram.NewDevice(cfg.ReadArray, eng)
	wr := dram.NewDevice(cfg.WriteArray, eng)
	s := newSectored(SectoredConfig{
		CapacityBytes: cfg.CapacityBytes,
		SectorBytes:   cfg.SectorBytes,
		Ways:          cfg.Ways,
		Replacement:   cache.NRU,
	}, eng, mm, part, rd, wr)
	s.onDie, s.tagLat = true, cfg.TagLat
	return s
}
