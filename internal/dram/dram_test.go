package dram

import (
	"testing"

	"dap/internal/mem"
	"dap/internal/sim"
)

func TestPeakBandwidths(t *testing.T) {
	cases := []struct {
		cfg  Config
		want float64
	}{
		{DDR4_2400(), 38.4},
		{DDR4_3200(), 51.2},
		{LPDDR4_2400(), 38.4},
		{HBM102(), 102.4},
		{HBM128(), 128.0},
		{HBM204(), 204.8},
		{EDRAMRead(51.2), 51.2},
		{EDRAMWrite(51.2), 51.2},
	}
	for _, c := range cases {
		got := c.cfg.PeakGBps()
		if got < c.want*0.999 || got > c.want*1.001 {
			t.Errorf("%s: peak = %.2f GB/s, want %.2f", c.cfg.Name, got, c.want)
		}
	}
}

func TestCPUCycleConversion(t *testing.T) {
	c := DDR4_2400() // 1200 MHz device, 4000 MHz CPU
	if got := c.cpuCycles(3); got != 10 {
		t.Fatalf("3 device clocks = %d CPU cycles, want 10", got)
	}
	if got := c.cpuCycles(0); got != 0 {
		t.Fatalf("0 device clocks = %d", got)
	}
	// rounding up: 1 device clock = 3.33 -> 4
	if got := c.cpuCycles(1); got != 4 {
		t.Fatalf("1 device clock = %d CPU cycles, want 4", got)
	}
}

// stream measures delivered bandwidth for sequential reads.
func streamGBps(t *testing.T, cfg Config, outstanding int, cycles mem.Cycle) float64 {
	t.Helper()
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
	for i := 0; i < outstanding; i++ {
		issue()
	}
	eng.RunUntil(cycles)
	return mem.GBPerSec(done*mem.LineBytes, cycles)
}

func TestStreamingReachesNearPeak(t *testing.T) {
	for _, cfg := range []Config{DDR4_2400(), HBM102()} {
		got := streamGBps(t, cfg, 128, 1_000_000)
		peak := cfg.PeakGBps()
		if got < 0.85*peak {
			t.Errorf("%s: streaming delivers %.1f GB/s, want >= 85%% of %.1f", cfg.Name, got, peak)
		}
		if got > peak*1.001 {
			t.Errorf("%s: delivered %.1f exceeds peak %.1f", cfg.Name, got, peak)
		}
	}
}

func TestRandomIsSlowerThanStreaming(t *testing.T) {
	cfg := DDR4_2400()
	eng := sim.New()
	dev := NewDevice(cfg, eng)
	var done uint64
	rng := uint64(12345)
	var issue func()
	issue = func() {
		if eng.Now() >= 1_000_000 {
			return
		}
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		a := mem.Addr(rng*0x2545f4914f6cdd1d) & 0x3fffffc0
		dev.Access(a, mem.ReadKind, func(mem.Cycle) {
			done++
			issue()
		})
	}
	for i := 0; i < 128; i++ {
		issue()
	}
	eng.RunUntil(1_000_000)
	random := mem.GBPerSec(done*mem.LineBytes, 1_000_000)
	seq := streamGBps(t, cfg, 128, 1_000_000)
	if random >= seq {
		t.Fatalf("random (%.1f) should be slower than sequential (%.1f)", random, seq)
	}
	st := dev.Stats()
	if st.RowMisses == 0 {
		t.Fatal("random traffic must cause row misses")
	}
}

func TestRowHitsForSequential(t *testing.T) {
	cfg := DDR4_2400()
	eng := sim.New()
	dev := NewDevice(cfg, eng)
	// touch 64 sequential lines synchronously-ish
	for i := 0; i < 256; i++ {
		dev.Access(mem.Addr(i*mem.LineBytes), mem.ReadKind, nil)
	}
	eng.Drain()
	st := dev.Stats()
	if st.Reads != 256 {
		t.Fatalf("reads = %d, want 256", st.Reads)
	}
	if st.RowHits < st.RowMisses {
		t.Fatalf("sequential traffic should be row-hit dominated: hits=%d misses=%d", st.RowHits, st.RowMisses)
	}
}

func TestWritesAreBatched(t *testing.T) {
	cfg := DDR4_2400()
	eng := sim.New()
	dev := NewDevice(cfg, eng)
	// interleave reads and writes; writes must not starve
	for i := 0; i < 100; i++ {
		dev.Access(mem.Addr(i*mem.LineBytes), mem.ReadKind, nil)
		dev.Access(mem.Addr((i+4096)*mem.LineBytes), mem.WritebackKind, nil)
	}
	eng.Drain()
	st := dev.Stats()
	if st.Reads != 100 || st.Writes != 100 {
		t.Fatalf("reads=%d writes=%d, want 100/100", st.Reads, st.Writes)
	}
}

func TestDoneCallbackAlwaysFires(t *testing.T) {
	cfg := HBM102()
	eng := sim.New()
	dev := NewDevice(cfg, eng)
	fired := 0
	n := 500
	for i := 0; i < n; i++ {
		dev.Access(mem.Addr(i*977*mem.LineBytes), mem.ReadKind, func(mem.Cycle) { fired++ })
	}
	eng.Drain()
	if fired != n {
		t.Fatalf("done fired %d times, want %d", fired, n)
	}
}

// TestQueuedRequestsAllocateNothing: queueing a request by value costs no
// heap allocation. A warm device serves batches of reads with a completion
// and writebacks without one, drains each batch, and allocates nothing.
func TestQueuedRequestsAllocateNothing(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(DDR4_2400(), eng)
	const perBatch = 64
	completed := 0
	done := func(mem.Cycle) { completed++ }
	var next mem.Addr
	batch := func() {
		for i := 0; i < perBatch; i++ {
			dev.Access(next, mem.ReadKind, done)
			dev.Access(next+mem.MiB, mem.WritebackKind, nil)
			next += mem.LineBytes
		}
		eng.Drain()
	}
	batch() // warm the channel queues and the engine's event storage
	const runs = 20
	if a := testing.AllocsPerRun(runs, batch); a != 0 {
		t.Fatalf("a drained batch of %d reads and %d writebacks allocates %.1f times, want 0", perBatch, perBatch, a)
	}
	// AllocsPerRun makes one extra warm-up call before the counted runs.
	if want := perBatch * (runs + 2); completed != want {
		t.Fatalf("%d reads completed, want %d", completed, want)
	}
	if st := dev.Stats(); st.Reads != st.Writes || st.Reads != uint64(completed) {
		t.Fatalf("served %d reads and %d writes, want %d each", st.Reads, st.Writes, completed)
	}
}

func TestReadLatencyReasonable(t *testing.T) {
	cfg := DDR4_2400()
	eng := sim.New()
	dev := NewDevice(cfg, eng)
	var lat mem.Cycle
	issued := eng.Now()
	dev.Access(0, mem.ReadKind, func(d mem.Cycle) { lat = d - issued })
	eng.Drain()
	// closed bank: tRCD+tCAS+burst+IO = (15+15)*3.33 + 13.3 + 33.3 ~ 147
	if lat < 80 || lat > 250 {
		t.Fatalf("unloaded read latency = %d cycles, want ~100-250", lat)
	}
}

func TestTADBurstOccupiesMoreBus(t *testing.T) {
	cfg := HBM102()
	eng := sim.New()
	dev := NewDevice(cfg, eng)
	for i := 0; i < 100; i++ {
		dev.AccessBurst(mem.Addr(i*mem.LineBytes), mem.ReadKind, 3, nil)
	}
	eng.Drain()
	tad := dev.Stats().BusyCycles
	dev2 := NewDevice(cfg, sim.New())
	eng2 := sim.New()
	dev2 = NewDevice(cfg, eng2)
	for i := 0; i < 100; i++ {
		dev2.Access(mem.Addr(i*mem.LineBytes), mem.ReadKind, nil)
	}
	eng2.Drain()
	plain := dev2.Stats().BusyCycles
	if tad <= plain {
		t.Fatalf("TAD busy %d must exceed plain busy %d", tad, plain)
	}
}

func TestEDRAMSeparateChannels(t *testing.T) {
	eng := sim.New()
	rd := NewDevice(EDRAMRead(51.2), eng)
	wr := NewDevice(EDRAMWrite(51.2), eng)
	for i := 0; i < 50; i++ {
		rd.Access(mem.Addr(i*mem.LineBytes), mem.ReadKind, nil)
		wr.Access(mem.Addr(i*mem.LineBytes), mem.FillKind, nil)
	}
	eng.Drain()
	if rd.Stats().Reads != 50 {
		t.Fatalf("read channels served %d", rd.Stats().Reads)
	}
	if wr.Stats().Writes != 50 {
		t.Fatalf("write channels served %d", wr.Stats().Writes)
	}
}

func TestResetStats(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(DDR4_2400(), eng)
	dev.Access(0, mem.ReadKind, nil)
	eng.Drain()
	if dev.Stats().CAS() != 1 {
		t.Fatal("expected one CAS")
	}
	dev.ResetStats()
	if dev.Stats().CAS() != 0 || dev.Kinds[mem.ReadKind] != 0 {
		t.Fatal("stats must reset")
	}
}

func TestQueueLen(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(DDR4_2400(), eng)
	for i := 0; i < 10; i++ {
		dev.Access(mem.Addr(i*64), mem.ReadKind, nil)
	}
	if dev.QueueLen() == 0 {
		t.Fatal("queue should hold pending requests before the engine runs")
	}
	eng.Drain()
	if dev.QueueLen() != 0 {
		t.Fatal("queue must drain")
	}
}

func TestChannelInterleaving(t *testing.T) {
	eng := sim.New()
	dev := NewDevice(DDR4_2400(), eng) // 2 channels
	// consecutive lines alternate channels: per-channel stats should split
	for i := 0; i < 100; i++ {
		dev.Access(mem.Addr(i*mem.LineBytes), mem.ReadKind, nil)
	}
	eng.Drain()
	for i, ch := range dev.channels {
		if ch.stats.Reads != 50 {
			t.Fatalf("channel %d served %d, want 50", i, ch.stats.Reads)
		}
	}
}

// BenchmarkDRAMStream measures the DRAM channel model's throughput in
// simulated accesses per wall-clock second.
func BenchmarkDRAMStream(b *testing.B) {
	eng := sim.New()
	dev := NewDevice(HBM102(), eng)
	for i := 0; i < b.N; i++ {
		dev.Access(mem.Addr(i)<<mem.LineShift, mem.ReadKind, nil)
		if dev.QueueLen() > 512 {
			eng.Drain()
		}
	}
	eng.Drain()
}
