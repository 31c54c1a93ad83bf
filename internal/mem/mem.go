// Package mem defines the shared vocabulary of the memory-system simulator:
// addresses, cycles, access kinds and bandwidth units.
//
// All times are expressed in CPU cycles. The simulated CPU frequency is
// fixed at 4 GHz (the paper's core clock), so one cycle is 0.25 ns and a
// bandwidth of 1 GB/s corresponds to 0.25 bytes per cycle.
package mem

import "fmt"

// Addr is a byte-granularity physical address.
type Addr uint64

// Cycle is a point in simulated time, measured in CPU cycles at 4 GHz.
type Cycle uint64

// Standard geometry constants used throughout the simulator.
const (
	// LineBytes is the transfer unit between all levels (64 B blocks).
	LineBytes = 64
	// LineShift is log2(LineBytes).
	LineShift = 6
	// CPUFreqGHz is the simulated core clock.
	CPUFreqGHz = 4.0
)

// Line returns the cache-line index of an address.
func (a Addr) Line() Addr { return a >> LineShift }

// LineAligned returns the address rounded down to its cache line.
func (a Addr) LineAligned() Addr { return a &^ (LineBytes - 1) }

// Kind classifies a memory access as seen below the L3 cache.
type Kind uint8

// Access kinds. ReadKind and WritebackKind are demand traffic from the SRAM
// hierarchy; the remaining kinds are maintenance traffic generated by the
// memory-side cache itself and exist so that bandwidth accounting can
// attribute every CAS operation (Section III of the paper: the access
// inflation factor C).
const (
	ReadKind      Kind = iota // demand read (L3 read miss)
	WritebackKind             // dirty L3 eviction
	FillKind                  // read-miss fill write into the memory-side cache
	MetaReadKind              // metadata fetch from in-cache tag store
	MetaWriteKind             // metadata update to in-cache tag store
	VictimRdKind              // read of a dirty victim block out of the cache
	PrefetchKind              // hardware prefetch fill
)

var kindNames = [...]string{"read", "writeback", "fill", "meta-read", "meta-write", "victim-read", "prefetch"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsWrite reports whether the access occupies a write datapath.
func (k Kind) IsWrite() bool {
	switch k {
	case WritebackKind, FillKind, MetaWriteKind, PrefetchKind:
		return true
	}
	return false
}

// BytesPerCycle converts a bandwidth in GB/s to bytes per CPU cycle.
func BytesPerCycle(gbps float64) float64 { return gbps / CPUFreqGHz }

// AccessesPerCycle converts a bandwidth in GB/s to 64-byte accesses per CPU
// cycle — the unit used by the DAP bandwidth equation.
func AccessesPerCycle(gbps float64) float64 { return BytesPerCycle(gbps) / LineBytes }

// GBPerSec converts bytes moved over a cycle span into GB/s.
func GBPerSec(bytes uint64, cycles Cycle) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bytes) / float64(cycles) * CPUFreqGHz
}

// KiB, MiB and GiB are capacity helpers.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
)
