// Package dram models DRAM bandwidth sources: multi-channel devices with
// banks, row buffers, FR-FCFS scheduling, batched writes, read/write
// turnaround and I/O delay. It is used both for the DDR main memory and for
// the die-stacked (HBM) and embedded (eDRAM) memory-side cache arrays.
//
// The model is deliberately at the granularity that matters for the paper:
// the data bus is the bandwidth bottleneck (every 64 B access occupies the
// bus for a burst), banks provide parallelism and row buffers provide the
// latency/bandwidth difference between hits and misses. Command-bus
// contention and refresh are not modeled (the paper likewise assumes no
// maintenance overheads for its bandwidth kernels).
package dram

import (
	"fmt"

	"dap/internal/check"
	"dap/internal/mem"
)

// Config describes one DRAM device (a set of identical channels).
type Config struct {
	Name string

	Channels int // independent channels with private data buses
	Banks    int // banks per channel (ranks folded in)
	RowBytes int // row-buffer size

	// FreqMHz is the device command clock. DDR transfers twice per clock;
	// that is folded into BurstCycles below.
	FreqMHz float64

	// Timing in device clocks.
	TCAS int // column access (read latency from CAS to first data)
	TRCD int // activate to CAS
	TRP  int // precharge
	TRAS int // activate to precharge

	// BurstCycles is the number of device clocks the data bus is occupied
	// per 64 B transfer (burst length / 2 for DDR; Alloy TADs use 3).
	BurstCycles int

	// IOCycles is the additional one-way I/O/board delay in device clocks
	// charged to each access (the paper charges ten 1.2 GHz cycles to the
	// DDR4 main memory).
	IOCycles int

	// Write batching: writes are buffered and drained when the queue
	// reaches WriteHigh, until it falls to WriteLow. TurnaroundCycles is
	// the bus penalty (device clocks) for each read<->write switch.
	WriteHigh        int
	WriteLow         int
	TurnaroundCycles int

	// ReadOnly / WriteOnly mark eDRAM-style dedicated channels.
	ReadOnly  bool
	WriteOnly bool
}

// Validate checks the configuration fields that the derived-timing
// arithmetic divides by or shifts with: zero channels, banks, burst length
// or row size would otherwise surface as divide-by-zero panics (address
// routing divides by RowBytes/LineBytes and the channel count) or nonsense
// latencies (cpuCycles and PeakGBps divide by FreqMHz and BurstCycles).
// All problems are reported at once as check.Errors.
func (c *Config) Validate() error {
	var errs check.Collector
	errs.Positive("Channels", c.Channels)
	errs.Positive("Banks", c.Banks)
	if c.RowBytes < mem.LineBytes || c.RowBytes%mem.LineBytes != 0 {
		errs.Addf("RowBytes", c.RowBytes, "must be a positive multiple of the %d B line", mem.LineBytes)
	}
	if !(c.FreqMHz > 0) {
		errs.Addf("FreqMHz", c.FreqMHz, "must be positive (derived timings divide by it)")
	}
	errs.Positive("BurstCycles", c.BurstCycles)
	errs.NonNegative("TCAS", c.TCAS)
	errs.NonNegative("TRCD", c.TRCD)
	errs.NonNegative("TRP", c.TRP)
	errs.NonNegative("TRAS", c.TRAS)
	errs.NonNegative("IOCycles", c.IOCycles)
	errs.NonNegative("TurnaroundCycles", c.TurnaroundCycles)
	errs.NonNegative("WriteLow", c.WriteLow)
	if c.WriteHigh < c.WriteLow {
		errs.Addf("WriteHigh", c.WriteHigh, "must be >= WriteLow (%d)", c.WriteLow)
	}
	if c.ReadOnly && c.WriteOnly {
		errs.Addf("ReadOnly", true, "a channel set cannot be both read-only and write-only")
	}
	return errs.Err()
}

// cpuCycles converts device clocks to CPU cycles (rounded up).
func (c *Config) cpuCycles(dev int) mem.Cycle {
	if dev <= 0 {
		return 0
	}
	f := float64(dev) * mem.CPUFreqGHz * 1000 / c.FreqMHz
	n := mem.Cycle(f)
	if float64(n) < f {
		n++
	}
	return n
}

// PeakGBps returns the aggregate peak data bandwidth of the device.
func (c *Config) PeakGBps() float64 {
	perChannel := c.FreqMHz * 1e6 / float64(c.BurstCycles) * mem.LineBytes / 1e9
	return perChannel * float64(c.Channels)
}

func (c *Config) String() string {
	return fmt.Sprintf("%s: %d ch x %d banks, %.1f GB/s peak, %d-%d-%d-%d @ %.0f MHz",
		c.Name, c.Channels, c.Banks, c.PeakGBps(), c.TCAS, c.TRCD, c.TRP, c.TRAS, c.FreqMHz)
}

// Named configurations from Section V of the paper.

// DDR4_2400 is the default dual-channel main memory (38.4 GB/s).
// Two ranks per channel, eight banks per rank, 2 KB rows, 15-15-15-39,
// burst length 8, plus a ten-cycle I/O delay at 1.2 GHz.
func DDR4_2400() Config {
	return Config{
		Name: "DDR4-2400", Channels: 2, Banks: 16, RowBytes: 2048,
		FreqMHz: 1200, TCAS: 15, TRCD: 15, TRP: 15, TRAS: 39,
		BurstCycles: 4, IOCycles: 10,
		WriteHigh: 24, WriteLow: 8, TurnaroundCycles: 8,
	}
}

// DDR4_2400NoIO removes the board/I/O latency (Figure 9 sensitivity).
func DDR4_2400NoIO() Config {
	c := DDR4_2400()
	c.Name = "DDR4-2400-noIO"
	c.IOCycles = 0
	return c
}

// DDR4_3200 is the higher-bandwidth main memory point (51.2 GB/s,
// 20-20-20-52, same latency class as DDR4-2400).
func DDR4_3200() Config {
	return Config{
		Name: "DDR4-3200", Channels: 2, Banks: 16, RowBytes: 2048,
		FreqMHz: 1600, TCAS: 20, TRCD: 20, TRP: 20, TRAS: 52,
		BurstCycles: 4, IOCycles: 13,
		WriteHigh: 24, WriteLow: 8, TurnaroundCycles: 8,
	}
}

// LPDDR4_2400 is the slow quad-channel main memory point: 32-bit channels
// with burst length 16 (same 38.4 GB/s aggregate), 24-24-24-53, ~70% higher
// row-hit latency.
func LPDDR4_2400() Config {
	return Config{
		Name: "LPDDR4-2400", Channels: 4, Banks: 8, RowBytes: 2048,
		FreqMHz: 1200, TCAS: 24, TRCD: 24, TRP: 24, TRAS: 53,
		BurstCycles: 8, IOCycles: 10,
		WriteHigh: 24, WriteLow: 8, TurnaroundCycles: 8,
	}
}

// HBM102 is the default die-stacked DRAM cache array: four 128-bit channels
// at 800 MHz (102.4 GB/s), one rank, 16 banks, 2 KB rows, 10-10-10-26,
// burst length 4.
func HBM102() Config {
	return Config{
		Name: "HBM-102.4", Channels: 4, Banks: 16, RowBytes: 2048,
		FreqMHz: 800, TCAS: 10, TRCD: 10, TRP: 10, TRAS: 26,
		BurstCycles: 2, IOCycles: 0,
		WriteHigh: 24, WriteLow: 8, TurnaroundCycles: 4,
	}
}

// HBM128 raises the stack clock to 1 GHz (128 GB/s, 12-12-12-32).
func HBM128() Config {
	c := HBM102()
	c.Name = "HBM-128"
	c.FreqMHz = 1000
	c.TCAS, c.TRCD, c.TRP, c.TRAS = 12, 12, 12, 32
	return c
}

// HBM204 doubles the channels at 800 MHz (204.8 GB/s).
func HBM204() Config {
	c := HBM102()
	c.Name = "HBM-204.8"
	c.Channels = 8
	return c
}

// EDRAMRead and EDRAMWrite are the independent 51.2 GB/s read and write
// channel sets of the sectored eDRAM cache. Access latency is about
// two-thirds of the main memory page-hit latency (Section VI-C); eDRAM rows
// behave like an always-hitting row buffer at this abstraction, so we fold
// the array latency into TCAS with TRCD=TRP=0 on a single logical bank pool.
func EDRAMRead(gbps float64) Config {
	return Config{
		Name: "eDRAM-read", Channels: 2, Banks: 32, RowBytes: 1024,
		FreqMHz: 1600, TCAS: 26, TRCD: 0, TRP: 0, TRAS: 0,
		BurstCycles: 4, IOCycles: 0,
		ReadOnly: true,
		// scale channel count if a non-default bandwidth is requested
	}.scaled(gbps)
}

// EDRAMWrite mirrors EDRAMRead for the write channel set.
func EDRAMWrite(gbps float64) Config {
	c := EDRAMRead(gbps)
	c.Name = "eDRAM-write"
	c.ReadOnly = false
	c.WriteOnly = true
	return c
}

// scaled adjusts channel count so the aggregate peak matches gbps (must be a
// multiple of the per-channel bandwidth).
func (c Config) scaled(gbps float64) Config {
	per := c.PeakGBps() / float64(c.Channels)
	n := int(gbps/per + 0.5)
	if n < 1 {
		n = 1
	}
	c.Channels = n
	return c
}
