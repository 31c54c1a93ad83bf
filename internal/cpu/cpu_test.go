package cpu

import (
	"testing"

	"dap/internal/mem"
	"dap/internal/sim"
	"dap/internal/workload"
)

// fixedBackend serves every read after a fixed latency and records traffic.
type fixedBackend struct {
	eng        *sim.Engine
	lat        mem.Cycle
	reads      int
	writebacks int
	prefetches int
	warmReads  int
}

func (f *fixedBackend) Read(a mem.Addr, c int, k mem.Kind, done func(mem.Cycle)) {
	if k == mem.PrefetchKind {
		f.prefetches++
	} else {
		f.reads++
	}
	f.eng.After(f.lat, func() { done(f.eng.Now()) })
}
func (f *fixedBackend) Writeback(a mem.Addr, c int)     { f.writebacks++ }
func (f *fixedBackend) WarmRead(a mem.Addr, c int)      { f.warmReads++ }
func (f *fixedBackend) WarmWriteback(a mem.Addr, c int) {}

// scripted is a hand-written access stream.
type scripted struct {
	accs []workload.Access
	i    int
}

func (s *scripted) Next() workload.Access {
	if s.i < len(s.accs) {
		a := s.accs[s.i]
		s.i++
		return a
	}
	// endless filler afterwards
	return workload.Access{Addr: mem.Addr(0x7fff0000), Gap: 1000}
}

func testCPU(t *testing.T, cfg Config, streams []workload.Stream, lat mem.Cycle) (*CPU, *fixedBackend, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	be := &fixedBackend{eng: eng, lat: lat}
	c := New(cfg, eng, be)
	c.SetStreams(streams)
	return c, be, eng
}

func smallCfg(cores int) Config {
	c := Default()
	c.Cores = cores
	c.PFDegree = 0 // most tests want deterministic traffic
	return c
}

func run(t *testing.T, c *CPU, eng *sim.Engine, target uint64) {
	t.Helper()
	c.Start(target)
	limit := eng.Now() + 100_000_000
	eng.RunWhile(func() bool { return !c.Done() && eng.Now() < limit })
	if !c.Done() {
		t.Fatal("cpu did not finish (possible deadlock)")
	}
}

func TestComputeBoundIPC(t *testing.T) {
	// Huge gaps: the core should retire at ~Width IPC.
	cfg := smallCfg(1)
	s := &scripted{}
	c, _, eng := testCPU(t, cfg, []workload.Stream{s}, 100)
	run(t, c, eng, 100_000)
	ipc := c.CoreStats()[0].IPC()
	if ipc < 3.5 || ipc > 4.01 {
		t.Fatalf("compute-bound IPC = %.2f, want ~4", ipc)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	cfg := smallCfg(1)
	// 100 dependent loads, each missing all caches (distinct lines far apart)
	var accs []workload.Access
	for i := 0; i < 100; i++ {
		accs = append(accs, workload.Access{
			Addr: mem.Addr(0x100000 + i*64*1024), Gap: 0, Dependent: true,
		})
	}
	s := &scripted{accs: accs}
	c, _, eng := testCPU(t, cfg, []workload.Stream{s}, 200)
	run(t, c, eng, 100)
	cycles := c.CoreStats()[0].Cycles
	// each load takes >= 200 cycles and they cannot overlap
	if cycles < 100*200 {
		t.Fatalf("dependent loads overlapped: %d cycles for 100 loads of 200", cycles)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	cfg := smallCfg(1)
	var accs []workload.Access
	for i := 0; i < 100; i++ {
		accs = append(accs, workload.Access{
			Addr: mem.Addr(0x100000 + i*64*1024), Gap: 0,
		})
	}
	s := &scripted{accs: accs}
	c, _, eng := testCPU(t, cfg, []workload.Stream{s}, 100)
	run(t, c, eng, 100)
	cycles := c.CoreStats()[0].Cycles
	// with a 224-entry ROB all 100 loads fit in flight: total ~ latency
	if cycles > 2000 {
		t.Fatalf("independent loads serialized: %d cycles", cycles)
	}
}

func TestROBLimitsMLP(t *testing.T) {
	cfg := smallCfg(1)
	cfg.ROB = 4 // tiny window: at most 4 loads in flight (gap 0)
	var accs []workload.Access
	for i := 0; i < 64; i++ {
		accs = append(accs, workload.Access{Addr: mem.Addr(0x100000 + i*64*1024)})
	}
	s := &scripted{accs: accs}
	c, _, eng := testCPU(t, cfg, []workload.Stream{s}, 200)
	run(t, c, eng, 64)
	cycles := c.CoreStats()[0].Cycles
	// 64 loads / 4-deep window * 220 cycles ~ 3300 minimum
	if cycles < 3000 {
		t.Fatalf("ROB window not enforced: %d cycles", cycles)
	}
}

func TestCacheHierarchyFiltersTraffic(t *testing.T) {
	cfg := smallCfg(1)
	// 1000 accesses to the same line: one backend read only
	var accs []workload.Access
	for i := 0; i < 1000; i++ {
		accs = append(accs, workload.Access{Addr: 0x4000, Gap: 1})
	}
	s := &scripted{accs: accs}
	c, be, eng := testCPU(t, cfg, []workload.Stream{s}, 100)
	run(t, c, eng, 2000)
	if be.reads != 1 {
		t.Fatalf("backend reads = %d, want 1 (caches must filter)", be.reads)
	}
	if c.CoreStats()[0].L3Misses != 1 {
		t.Fatalf("L3 misses = %d, want 1", c.CoreStats()[0].L3Misses)
	}
}

func TestDirtyEvictionsReachBackend(t *testing.T) {
	cfg := smallCfg(1)
	cfg.L1Bytes = 2 * mem.KiB // tiny caches to force eviction cascades
	cfg.L2Bytes = 4 * mem.KiB
	cfg.L3Bytes = 8 * mem.KiB
	var accs []workload.Access
	for i := 0; i < 2000; i++ {
		accs = append(accs, workload.Access{
			Addr: mem.Addr(0x100000 + (i%1000)*64), Store: true, Gap: 0,
		})
	}
	s := &scripted{accs: accs}
	c, be, eng := testCPU(t, cfg, []workload.Stream{s}, 2000)
	run(t, c, eng, 2000)
	// let outstanding fills (and their eviction cascades) settle
	eng.RunUntil(eng.Now() + 50_000)
	if be.writebacks == 0 {
		t.Fatal("dirty L3 evictions must reach the backend")
	}
}

func TestPrefetcherIssuesOnStride(t *testing.T) {
	cfg := smallCfg(1)
	cfg.PFDegree = 2
	cfg.PFDistance = 8
	var accs []workload.Access
	for i := 0; i < 500; i++ {
		accs = append(accs, workload.Access{Addr: mem.Addr(0x100000 + i*64), Gap: 8})
	}
	s := &scripted{accs: accs}
	c, be, eng := testCPU(t, cfg, []workload.Stream{s}, 3000)
	run(t, c, eng, 3000)
	if be.prefetches == 0 {
		t.Fatal("sequential stream must trigger prefetches")
	}
	// prefetching must reduce demand misses well below the line count
	if c.CoreStats()[0].L3Misses > 450 {
		t.Fatalf("L3 misses = %d; prefetcher ineffective", c.CoreStats()[0].L3Misses)
	}
}

func TestStridePrefetcherUnit(t *testing.T) {
	p := newStridePrefetcher(4, 2, 8)
	var out []mem.Addr
	// constant stride of 1 line within a region
	for i := 0; i < 4; i++ {
		out = p.observe(mem.Addr(i*64), nil)
	}
	if len(out) == 0 {
		t.Fatal("confident stride must emit prefetches")
	}
	for _, a := range out {
		if a <= mem.Addr(3*64) {
			t.Fatalf("prefetch %#x is behind the demand stream", a)
		}
	}
	// stride break resets confidence
	out = p.observe(mem.Addr(100*4096), nil)
	if len(out) != 0 {
		t.Fatal("new region must not prefetch before confidence")
	}
}

func TestPrefetcherDisabled(t *testing.T) {
	p := newStridePrefetcher(4, 0, 8)
	for i := 0; i < 10; i++ {
		if out := p.observe(mem.Addr(i*64), nil); len(out) != 0 {
			t.Fatal("degree 0 must disable prefetching")
		}
	}
}

func TestWarmPopulatesCaches(t *testing.T) {
	cfg := smallCfg(1)
	spec, _ := workload.ByName("gcc.expr")
	st := workload.NewStream(spec, workload.CoreSpacing, 1)
	eng := sim.New()
	be := &fixedBackend{eng: eng, lat: 100}
	c := New(cfg, eng, be)
	c.SetStreams([]workload.Stream{st})
	c.Warm(20000)
	if be.warmReads == 0 {
		t.Fatal("warmup must reach the backend functionally")
	}
	if be.reads != 0 {
		t.Fatal("warmup must not generate timed traffic")
	}
	if len(c.l3.lines()) == 0 {
		t.Fatal("warmup must populate the L3")
	}
}

func TestMultiCoreCompletes(t *testing.T) {
	cfg := smallCfg(4)
	specs := workload.Sensitive()[:4]
	var streams []workload.Stream
	for i, sp := range specs {
		streams = append(streams, workload.NewStream(sp, workload.CoreSpacing*mem.Addr(i+1), uint64(i+1)))
	}
	eng := sim.New()
	be := &fixedBackend{eng: eng, lat: 150}
	c := New(cfg, eng, be)
	c.SetStreams(streams)
	run(t, c, eng, 20000)
	for i, cs := range c.CoreStats() {
		if cs.Instructions != 20000 {
			t.Fatalf("core %d retired %d, want 20000", i, cs.Instructions)
		}
		if cs.IPC() <= 0 {
			t.Fatalf("core %d IPC = %v", i, cs.IPC())
		}
	}
}

func TestL3ReadMissLatencyTracked(t *testing.T) {
	cfg := smallCfg(1)
	var accs []workload.Access
	for i := 0; i < 50; i++ {
		accs = append(accs, workload.Access{Addr: mem.Addr(0x100000 + i*64*1024), Gap: 50})
	}
	s := &scripted{accs: accs}
	c, _, eng := testCPU(t, cfg, []workload.Stream{s}, 123)
	run(t, c, eng, 3000)
	cs := c.CoreStats()[0]
	if cs.L3ReadMisses == 0 {
		t.Fatal("read misses must be counted")
	}
	avg := cs.AvgL3ReadMissLatency()
	// backend latency 123 plus L3 return path 20
	if avg < 140 || avg > 160 {
		t.Fatalf("avg L3 read miss latency = %.1f, want ~143", avg)
	}
}

func TestStreamCountMismatchPanics(t *testing.T) {
	cfg := smallCfg(2)
	eng := sim.New()
	c := New(cfg, eng, &fixedBackend{eng: eng, lat: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched stream count must panic")
		}
	}()
	c.SetStreams([]workload.Stream{&scripted{}})
}

func TestPrefetcherBackwardStride(t *testing.T) {
	p := newStridePrefetcher(4, 2, 8)
	var out []mem.Addr
	base := 100 * 64
	for i := 0; i < 4; i++ {
		out = p.observe(mem.Addr(base-i*64), nil)
	}
	if len(out) == 0 {
		t.Fatal("negative strides must prefetch too")
	}
	for _, a := range out {
		if a >= mem.Addr(base-3*64) {
			t.Fatalf("backward prefetch %#x not below the stream", a)
		}
	}
}

func TestPrefetcherStrideBreakRetrains(t *testing.T) {
	p := newStridePrefetcher(4, 2, 8)
	for i := 0; i < 4; i++ {
		p.observe(mem.Addr(i*64), nil)
	}
	// break the stride: jump within the same region
	if out := p.observe(mem.Addr(30*64), nil); len(out) != 0 {
		t.Fatal("stride break must lose confidence")
	}
	// two consistent accesses at the new stride rebuild confidence
	p.observe(mem.Addr(32*64), nil)
	if out := p.observe(mem.Addr(34*64), nil); len(out) == 0 {
		t.Fatal("new stride must retrain")
	}
}

func TestPFOutstandingBound(t *testing.T) {
	cfg := smallCfg(1)
	cfg.PFDegree = 4
	cfg.PFDistance = 64
	cfg.PFOutstanding = 4
	var accs []workload.Access
	for i := 0; i < 400; i++ {
		accs = append(accs, workload.Access{Addr: mem.Addr(0x100000 + i*64), Gap: 2})
	}
	s := &scripted{accs: accs}
	eng := sim.New()
	be := &fixedBackend{eng: eng, lat: 5000} // slow: prefetches pile up
	c := New(cfg, eng, be)
	c.SetStreams([]workload.Stream{s})
	c.Start(400)
	for i := 0; i < 50000 && !c.Done(); i++ {
		if !eng.Step() {
			break
		}
		if c.cores[0].pfOut > 4 {
			t.Fatalf("outstanding prefetches %d exceed the bound", c.cores[0].pfOut)
		}
	}
}
