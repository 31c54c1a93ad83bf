// Package cpu models the processor side of the system: dynamically
// scheduled cores whose memory-level parallelism is bounded by a 224-entry
// reorder buffer, private L1/L2 caches, a shared inclusive L3, and an
// aggressive multi-stream stride prefetcher filling L2 and L3 — the
// configuration of Section V of the paper.
//
// The core model is an ROB-occupancy model: a core retires up to Width
// instructions per cycle, may fetch at most ROB instructions beyond the
// oldest incomplete load, issues loads and stores from its workload stream
// at the stream's configured intensity, and stalls when the window fills.
// Dependent (pointer-chase) loads additionally serialize with one another.
// This reproduces exactly the property every experiment in the paper
// depends on: how much bandwidth demand a core can expose.
package cpu

import (
	"dap/internal/check"
	"dap/internal/mem"
)

// Config collects the core and SRAM-hierarchy parameters.
type Config struct {
	Cores int
	ROB   int // reorder-buffer entries (fetch window past oldest load)
	Width int // retire width, instructions/cycle

	L1Bytes, L1Ways int
	L2Bytes, L2Ways int
	L3Bytes, L3Ways int

	// L2Lat and L3Lat are round-trip load-to-use latencies; L1 hits are
	// free in this model.
	L2Lat, L3Lat mem.Cycle

	// Prefetcher: Streams tracked per core, Degree lines issued per
	// trigger, Distance lines of lookahead, PFOutstanding outstanding
	// prefetch fills per core (the prefetch request buffer). Degree 0
	// disables it.
	PFStreams, PFDegree, PFDistance, PFOutstanding int
}

// Validate checks the core and cache-geometry parameters, reporting every
// problem at once as check.Errors.
func (c *Config) Validate() error {
	var errs check.Collector
	errs.Positive("Cores", c.Cores)
	errs.Positive("ROB", c.ROB)
	errs.Positive("Width", c.Width)
	level := func(name string, bytes, ways int) {
		if ways <= 0 || ways > maxWays {
			errs.Addf(name+"Ways", ways, "must be in [1, %d]", maxWays)
			return
		}
		if bytes < mem.LineBytes*ways {
			errs.Addf(name+"Bytes", bytes, "smaller than one %d B line per way", mem.LineBytes)
		}
	}
	level("L1", c.L1Bytes, c.L1Ways)
	level("L2", c.L2Bytes, c.L2Ways)
	level("L3", c.L3Bytes, c.L3Ways)
	errs.NonNegative("PFStreams", c.PFStreams)
	errs.NonNegative("PFDegree", c.PFDegree)
	errs.NonNegative("PFDistance", c.PFDistance)
	if c.PFDegree > 0 {
		errs.Positive("PFOutstanding", c.PFOutstanding)
	} else {
		errs.NonNegative("PFOutstanding", c.PFOutstanding)
	}
	return errs.Err()
}

// Default returns the paper's eight-core Skylake-like configuration.
func Default() Config {
	return Config{
		Cores: 8, ROB: 224, Width: 4,
		L1Bytes: 32 * mem.KiB, L1Ways: 8,
		L2Bytes: 256 * mem.KiB, L2Ways: 8,
		L3Bytes: 8 * mem.MiB, L3Ways: 16,
		L2Lat: 11, L3Lat: 20,
		PFStreams: 16, PFDegree: 4, PFDistance: 32, PFOutstanding: 32,
	}
}

// Backend is the memory system below the L3: a memory-side cache controller
// backed by main memory (or main memory alone). Read's done callback fires
// when the 64-byte line is available at the L3 boundary. Warm* are
// functional (timing-free) variants used to pre-populate state.
type Backend interface {
	Read(addr mem.Addr, core int, kind mem.Kind, done func(mem.Cycle))
	Writeback(addr mem.Addr, core int)
	WarmRead(addr mem.Addr, core int)
	WarmWriteback(addr mem.Addr, core int)
}
