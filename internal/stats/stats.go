// Package stats collects and aggregates the metrics the paper reports:
// per-core IPC, weighted speedup, memory-side cache hit rates, main-memory
// CAS fractions, DAP decision mixes and L3 read-miss latencies.
package stats

import (
	"math"
	"sort"

	"dap/internal/mem"
)

// CoreStats tracks one core's progress.
type CoreStats struct {
	Instructions     uint64
	Cycles           mem.Cycle // cycles to retire Instructions
	L3Misses         uint64
	L3ReadMissLatSum mem.Cycle
	L3ReadMisses     uint64
	// L3MissLat is the distribution of L3 read-miss round trips.
	L3MissLat Histogram
}

// IPC returns retired instructions per cycle.
func (c *CoreStats) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// MPKI returns L3 misses per kilo-instruction.
func (c *CoreStats) MPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.L3Misses) / float64(c.Instructions) * 1000
}

// AvgL3ReadMissLatency returns the mean round-trip latency of L3 read misses.
func (c *CoreStats) AvgL3ReadMissLatency() float64 {
	if c.L3ReadMisses == 0 {
		return 0
	}
	return float64(c.L3ReadMissLatSum) / float64(c.L3ReadMisses)
}

// AggregateIPC is the sum of per-core IPCs, each over the core's own
// retirement time: the throughput every report and figure quotes.
func AggregateIPC(cores []CoreStats) float64 {
	sum := 0.0
	for i := range cores {
		sum += cores[i].IPC()
	}
	return sum
}

// WeightedSpeedup computes sum_i IPC_i / IPCalone_i. The alone slice must be
// parallel to cores; zero alone IPCs contribute zero.
func WeightedSpeedup(cores []CoreStats, alone []float64) float64 {
	ws := 0.0
	for i := range cores {
		if i < len(alone) && alone[i] > 0 {
			ws += cores[i].IPC() / alone[i]
		}
	}
	return ws
}

// DAPDecisions counts technique applications (Figure 7).
type DAPDecisions struct {
	FWB, WB, IFRM, SFRM uint64
}

// Total returns the number of partitioning decisions taken.
func (d DAPDecisions) Total() uint64 { return d.FWB + d.WB + d.IFRM + d.SFRM }

// Fractions returns each technique's share of all decisions.
func (d DAPDecisions) Fractions() (fwb, wb, ifrm, sfrm float64) {
	t := d.Total()
	if t == 0 {
		return 0, 0, 0, 0
	}
	return float64(d.FWB) / float64(t), float64(d.WB) / float64(t),
		float64(d.IFRM) / float64(t), float64(d.SFRM) / float64(t)
}

// MemSideStats tracks memory-side cache behaviour.
type MemSideStats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64

	Fills         uint64
	FillBypasses  uint64
	WriteBypasses uint64
	ForcedMisses  uint64 // IFRM applications
	SpecForced    uint64 // read hits that spent an SFRM credit taken at the metadata fetch
	SpecWasted    uint64 // of those, dirty hits: served by the cache, no main-memory access

	TagCacheHits   uint64
	TagCacheMisses uint64
	MetaReads      uint64
	MetaWrites     uint64
	VictimReads    uint64
	SectorEvicts   uint64
	DirtyWriteouts uint64
}

// HitRatio is the combined read+write hit ratio the paper plots in Fig. 8.
func (m *MemSideStats) HitRatio() float64 {
	t := m.ReadHits + m.ReadMisses + m.WriteHits + m.WriteMisses
	if t == 0 {
		return 0
	}
	return float64(m.ReadHits+m.WriteHits) / float64(t)
}

// ReadHitRatio is hits over demand reads only.
func (m *MemSideStats) ReadHitRatio() float64 {
	t := m.ReadHits + m.ReadMisses
	if t == 0 {
		return 0
	}
	return float64(m.ReadHits) / float64(t)
}

// SpecWastedRatio is the fraction of SFRM-credited read hits that were
// dirty. In the paper (Section 4.4) those are speculative main-memory reads
// whose data is discarded, wasted main-memory bandwidth. Here the credit is
// taken at the metadata fetch and no main-memory read goes with it, so a
// dirty hit reads the cache only and the ratio counts a cost the model
// never charges; launching the read is the open fix of ROADMAP.md item 16.
func (m *MemSideStats) SpecWastedRatio() float64 {
	if m.SpecForced == 0 {
		return 0
	}
	return float64(m.SpecWasted) / float64(m.SpecForced)
}

// TagCacheMissRatio is the SRAM tag-cache miss rate (Figure 5).
func (m *MemSideStats) TagCacheMissRatio() float64 {
	t := m.TagCacheHits + m.TagCacheMisses
	if t == 0 {
		return 0
	}
	return float64(m.TagCacheMisses) / float64(t)
}

// Run captures everything measured during one simulation.
type Run struct {
	Cycles  mem.Cycle
	Cores   []CoreStats
	MemSide MemSideStats
	DAP     DAPDecisions

	// CAS counts by source for the main-memory CAS fraction (Fig. 8/14).
	MSCacheCAS uint64
	MainMemCAS uint64

	// Delivered bandwidth in GB/s (for the Figure 1 kernel).
	DeliveredGBps float64
}

// MainMemCASFraction is MM CAS / (MM CAS + MS$ CAS).
func (r *Run) MainMemCASFraction() float64 {
	t := r.MSCacheCAS + r.MainMemCAS
	if t == 0 {
		return 0
	}
	return float64(r.MainMemCAS) / float64(t)
}

// AggregateIPC is the sum of the run's per-core IPCs.
func (r *Run) AggregateIPC() float64 { return AggregateIPC(r.Cores) }

// WeightedSpeedup against per-core alone IPCs.
func (r *Run) WeightedSpeedup(alone []float64) float64 { return WeightedSpeedup(r.Cores, alone) }

// AvgL3ReadMissLatency averages over cores with traffic.
func (r *Run) AvgL3ReadMissLatency() float64 {
	var sum mem.Cycle
	var n uint64
	for i := range r.Cores {
		sum += r.Cores[i].L3ReadMissLatSum
		n += r.Cores[i].L3ReadMisses
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// GeoMean returns the geometric mean of strictly positive values; zero or
// negative entries are skipped (matching how the paper reports GMEAN over
// normalized speedups).
func GeoMean(vs []float64) float64 {
	s, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			s += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}

// Mean returns the arithmetic mean.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// SortedCopy returns an ascending copy (Fig. 12 sorts mixes by speedup).
func SortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// Quantile returns the q-th quantile (0 <= q <= 1) of vs using linear
// interpolation between order statistics; 0 for an empty slice. Used by the
// optimality-gap CDF tables.
func Quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := SortedCopy(vs)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}
