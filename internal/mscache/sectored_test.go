package mscache

import (
	"math/rand"
	"slices"
	"testing"

	"dap/internal/ckpt"
	"dap/internal/core"
	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/policy"
	"dap/internal/sim"
)

// testSectored builds a small sectored cache on a fresh engine.
func testSectored(t *testing.T, part core.Partitioner) (*Sectored, *dram.Device, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	mm := dram.NewDevice(dram.DDR4_2400(), eng)
	cfg := DefaultSectored()
	cfg.CapacityBytes = 1 * mem.MiB // 256 sectors, 64 sets
	cfg.TagCacheEntries = 64
	s := NewSectored(cfg, eng, mm, part)
	return s, mm, eng
}

func read(s *Sectored, eng *sim.Engine, a mem.Addr) mem.Cycle {
	var lat mem.Cycle
	start := eng.Now()
	s.Read(a, 0, mem.ReadKind, func(d mem.Cycle) { lat = d - start })
	eng.Drain()
	return lat
}

func TestSectoredMissThenHit(t *testing.T) {
	s, mm, eng := testSectored(t, core.Nop{})
	a := mem.Addr(0x10000)
	read(s, eng, a)
	if s.st.ReadMisses != 1 {
		t.Fatalf("misses = %d, want 1", s.st.ReadMisses)
	}
	mmCAS := mm.Stats().CAS()
	if mmCAS == 0 {
		t.Fatal("miss must access main memory")
	}
	read(s, eng, a)
	if s.st.ReadHits != 1 {
		t.Fatalf("hits = %d, want 1", s.st.ReadHits)
	}
	if mm.Stats().CAS() != mmCAS {
		t.Fatal("hit must not touch main memory")
	}
}

func TestSectoredFillMakesBlockValid(t *testing.T) {
	s, _, eng := testSectored(t, core.Nop{})
	a := mem.Addr(0x20000)
	read(s, eng, a)
	line := s.tags.Probe(a)
	if !line.Ok() || line.VMask()&s.blockBit(a) == 0 {
		t.Fatal("read miss must allocate the sector and fill the block")
	}
	if s.st.Fills == 0 {
		t.Fatal("fill must be recorded")
	}
}

func TestSectoredWritebackMakesDirty(t *testing.T) {
	s, _, eng := testSectored(t, core.Nop{})
	a := mem.Addr(0x30000)
	s.Writeback(a, 0)
	eng.Drain()
	line := s.tags.Probe(a)
	if !line.Ok() || line.DMask()&s.blockBit(a) == 0 {
		t.Fatal("writeback must install a dirty block")
	}
	if s.st.WriteMisses != 1 {
		t.Fatalf("write misses = %d", s.st.WriteMisses)
	}
	s.Writeback(a, 0)
	eng.Drain()
	if s.st.WriteHits != 1 {
		t.Fatalf("write hits = %d", s.st.WriteHits)
	}
}

func TestSectoredDirtyEvictionWritesOut(t *testing.T) {
	s, mm, eng := testSectored(t, core.Nop{})
	// fill one set (4 ways) with dirty blocks, then force an eviction
	sets := s.tags.Sets
	var addrs []mem.Addr
	for w := 0; w < 5; w++ {
		addrs = append(addrs, mem.Addr(uint64(w)*uint64(sets)*4096))
	}
	for _, a := range addrs[:4] {
		s.Writeback(a, 0)
	}
	eng.Drain()
	mmWritesBefore := mm.Stats().Writes
	s.Writeback(addrs[4], 0) // evicts one sector with a dirty block
	eng.Drain()
	if s.st.SectorEvicts != 1 {
		t.Fatalf("sector evicts = %d, want 1", s.st.SectorEvicts)
	}
	if s.st.DirtyWriteouts == 0 {
		t.Fatal("victim's dirty blocks must be written out")
	}
	if mm.Stats().Writes <= mmWritesBefore {
		t.Fatal("dirty write-out must reach main memory")
	}
}

func TestTagCacheReducesMetadataTraffic(t *testing.T) {
	s, _, eng := testSectored(t, core.Nop{})
	a := mem.Addr(0x40000)
	read(s, eng, a)
	if s.st.TagCacheMisses != 1 {
		t.Fatalf("first access: tag cache misses = %d", s.st.TagCacheMisses)
	}
	metaReads := s.st.MetaReads
	// same sector, different block: tag cache hit, no new metadata read
	read(s, eng, a+mem.LineBytes)
	if s.st.TagCacheHits != 1 {
		t.Fatalf("tag cache hits = %d", s.st.TagCacheHits)
	}
	if s.st.MetaReads != metaReads {
		t.Fatal("tag cache hit must not fetch metadata from DRAM")
	}
}

func TestNoTagCacheAlwaysFetchesMetadata(t *testing.T) {
	eng := sim.New()
	mm := dram.NewDevice(dram.DDR4_2400(), eng)
	cfg := DefaultSectored()
	cfg.CapacityBytes = 1 * mem.MiB
	cfg.TagCacheEntries = 0
	s := NewSectored(cfg, eng, mm, core.Nop{})
	a := mem.Addr(0x50000)
	s.Read(a, 0, mem.ReadKind, nil)
	eng.Drain()
	s.Read(a, 0, mem.ReadKind, nil)
	eng.Drain()
	if s.st.MetaReads != 2 {
		t.Fatalf("meta reads = %d, want one per access without a tag cache", s.st.MetaReads)
	}
}

func TestFootprintPrefetchOnReallocation(t *testing.T) {
	s, _, eng := testSectored(t, core.Nop{})
	sets := s.tags.Sets
	base := mem.Addr(0x100000)
	// touch 3 blocks of a sector
	for b := 0; b < 3; b++ {
		read(s, eng, base+mem.Addr(b*mem.LineBytes))
	}
	// evict it by filling the set with 4 more sectors
	for w := 1; w <= 4; w++ {
		read(s, eng, base+mem.Addr(uint64(w)*uint64(sets)*4096))
	}
	if s.st.SectorEvicts == 0 {
		t.Fatal("set pressure must evict the first sector")
	}
	fillsBefore := s.st.Fills
	// re-touch one block: the footprint (3 blocks) should be fetched
	read(s, eng, base)
	if s.st.Fills < fillsBefore+3 {
		t.Fatalf("footprint fetch expected ~3 fills, got %d", s.st.Fills-fillsBefore)
	}
	line := s.tags.Probe(base)
	if !line.Ok() || line.VMask()&0b111 != 0b111 {
		t.Fatalf("predicted footprint not restored: VMask=%b", line.VMask())
	}
}

// TestFootprintCheckpointSlotForSlot overfills a footprint table (at its
// budget a new sector whose home slot is empty still takes it, so the
// occupancy passes the budget), saves it and restores it into a fresh
// table: the slots and occupancy must come back verbatim, and both tables
// must then evict and predict alike.
func TestFootprintCheckpointSlotForSlot(t *testing.T) {
	const budget = 16
	rng := rand.New(rand.NewSource(5))
	f := newFootprintTable(budget)
	for i := 0; i < budget+budget/2; i++ {
		f.record(uint64(rng.Intn(1<<20)), uint64(rng.Int63()))
	}
	if f.n <= f.cap {
		t.Fatalf("occupancy %d never passed the budget %d", f.n, f.cap)
	}
	w := ckpt.NewWriter()
	saveFootprint(w.Section("fp"), f)
	r, err := ckpt.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := r.Section("fp")
	got := newFootprintTable(budget)
	if err := loadFootprint(d, got); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.keys, f.keys) || !slices.Equal(got.vals, f.vals) || got.n != f.n {
		t.Fatal("restored table differs from the saved one slot for slot")
	}
	for i := 0; i < 4*budget; i++ {
		sec, mask := uint64(rng.Intn(1<<20)), uint64(rng.Int63())
		f.record(sec, mask)
		got.record(sec, mask)
	}
	if !slices.Equal(got.keys, f.keys) || !slices.Equal(got.vals, f.vals) || got.n != f.n {
		t.Fatal("restored table evicted differently from the saved one")
	}

	if d, _ := r.Section("fp"); loadFootprint(d, nil) == nil {
		t.Fatal("a cache without the prefetcher must refuse a saved table")
	}
}

// dapStub grants a fixed set of credits.
type dapStub struct {
	core.Nop
	fwb, wb, ifrm, sfrm int
}

func (d *dapStub) TakeFWB() bool {
	if d.fwb > 0 {
		d.fwb--
		return true
	}
	return false
}
func (d *dapStub) TakeWB() bool {
	if d.wb > 0 {
		d.wb--
		return true
	}
	return false
}
func (d *dapStub) TakeIFRM(int) bool {
	if d.ifrm > 0 {
		d.ifrm--
		return true
	}
	return false
}
func (d *dapStub) TakeSFRM() bool {
	if d.sfrm > 0 {
		d.sfrm--
		return true
	}
	return false
}

func TestFWBDropsFill(t *testing.T) {
	stub := &dapStub{fwb: 100}
	s, _, eng := testSectored(t, stub)
	a := mem.Addr(0x60000)
	read(s, eng, a)
	if s.st.FillBypasses == 0 {
		t.Fatal("fill must be bypassed")
	}
	line := s.tags.Probe(a)
	if line.Ok() && line.VMask()&s.blockBit(a) != 0 {
		t.Fatal("bypassed fill must leave the block invalid")
	}
	// the next read of the same block must miss again
	read(s, eng, a)
	if s.st.ReadMisses != 2 {
		t.Fatalf("read misses = %d, want 2", s.st.ReadMisses)
	}
}

func TestWBSteersWriteToMemoryAndInvalidates(t *testing.T) {
	s, mm, eng := testSectored(t, core.Nop{})
	a := mem.Addr(0x70000)
	read(s, eng, a) // make the block valid and clean
	s.part = &dapStub{wb: 10}
	mmW := mm.Stats().Writes
	s.Writeback(a, 0)
	eng.Drain()
	if s.st.WriteBypasses != 1 {
		t.Fatalf("write bypasses = %d", s.st.WriteBypasses)
	}
	if mm.Stats().Writes <= mmW {
		t.Fatal("bypassed write must go to main memory")
	}
	line := s.tags.Probe(a)
	if line.Ok() && line.VMask()&s.blockBit(a) != 0 {
		t.Fatal("stale cached copy must be invalidated on write bypass")
	}
}

func TestIFRMServesCleanHitFromMemory(t *testing.T) {
	s, mm, eng := testSectored(t, core.Nop{})
	a := mem.Addr(0x80000)
	read(s, eng, a) // clean block
	s.part = &dapStub{ifrm: 10}
	mmR := mm.Stats().Reads
	read(s, eng, a)
	if s.st.ForcedMisses != 1 {
		t.Fatalf("forced misses = %d", s.st.ForcedMisses)
	}
	if mm.Stats().Reads <= mmR {
		t.Fatal("forced miss must read from main memory")
	}
	// the block stays valid: a later read without credits hits the cache
	s.part = core.Nop{}
	devR := s.rd.Stats().Reads
	read(s, eng, a)
	if s.rd.Stats().Reads <= devR {
		t.Fatal("block must still be served by the cache afterwards")
	}
}

func TestIFRMNeverAppliedToDirtyHit(t *testing.T) {
	s, mm, eng := testSectored(t, core.Nop{})
	a := mem.Addr(0x90000)
	s.Writeback(a, 0) // dirty block
	eng.Drain()
	s.part = &dapStub{ifrm: 10}
	mmR := mm.Stats().Reads
	read(s, eng, a)
	if mm.Stats().Reads != mmR {
		t.Fatal("dirty hit must not be forced to memory")
	}
	if s.st.ForcedMisses != 0 {
		t.Fatal("no forced miss for dirty blocks")
	}
}

func TestSFRMLaunchesParallelRead(t *testing.T) {
	stub := &dapStub{sfrm: 10}
	s, mm, eng := testSectored(t, stub)
	a := mem.Addr(0xa0000)
	// first access: tag cache miss -> SFRM fires, and it is a real miss
	read(s, eng, a)
	if s.st.SpecForced != 0 {
		t.Fatal("SFRM on a miss is just the normal memory read")
	}
	// make a clean resident block, then evict its tag cache entry
	for i := 0; i < 100; i++ {
		read(s, eng, mem.Addr(0x200000)+mem.Addr(i*4096))
	}
	stub.sfrm = 10 // the filler reads consumed the credits
	mmR := mm.Stats().Reads
	read(s, eng, a) // tag-cache miss, clean hit -> served by memory
	if s.st.SpecForced == 0 {
		t.Fatal("SFRM must fire on a tag-cache-missing clean hit")
	}
	if mm.Stats().Reads <= mmR {
		t.Fatal("SFRM must consume a main-memory read")
	}
}

func TestWindowCountsPopulated(t *testing.T) {
	s, _, eng := testSectored(t, core.Nop{})
	a := mem.Addr(0xb0000)
	read(s, eng, a)
	wc := s.Windows()
	if wc.AMM == 0 || wc.Rm == 0 {
		t.Fatalf("miss must count AMM/Rm: %+v", wc)
	}
	if wc.AMSR == 0 {
		t.Fatalf("metadata read must count AMSR: %+v", wc)
	}
	read(s, eng, a)
	if wc.CleanHits == 0 {
		t.Fatalf("clean hit must be counted: %+v", wc)
	}
}

func TestWarmPathsPopulateState(t *testing.T) {
	s, mm, eng := testSectored(t, core.Nop{})
	a := mem.Addr(0xc0000)
	s.WarmRead(a, 0)
	s.WarmWriteback(a+mem.LineBytes, 0)
	if mm.Stats().CAS() != 0 || s.rd.Stats().CAS() != 0 {
		t.Fatal("warm paths must not generate traffic")
	}
	line := s.tags.Probe(a)
	if !line.Ok() || line.VMask()&s.blockBit(a) == 0 {
		t.Fatal("warm read must install the block")
	}
	if line.DMask()&s.blockBit(a+mem.LineBytes) == 0 {
		t.Fatal("warm writeback must mark dirty")
	}
	// warmed blocks hit in the timed path
	read(s, eng, a)
	if s.st.ReadHits != 1 {
		t.Fatal("warmed block must hit")
	}
}

func TestBATMANDisabledSetBypassesCache(t *testing.T) {
	s, mm, eng := testSectored(t, core.Nop{})
	s.BATMAN = policy.NewBATMAN(s.tags.Sets, 102.4, 38.4)
	// drive the hit rate above target so the first epoch disables set 0
	for i := 0; i < 1000; i++ {
		s.BATMAN.NoteLookup(true)
	}
	s.BATMAN.Epoch()
	if !s.BATMAN.Disabled(0) {
		t.Fatal("set 0 should be disabled")
	}
	a := mem.Addr(0) // set 0 is disabled
	mmR := mm.Stats().Reads
	read(s, eng, a)
	if mm.Stats().Reads <= mmR {
		t.Fatal("disabled set must read from memory")
	}
	if s.tags.Probe(a).Ok() {
		t.Fatal("disabled set must not allocate")
	}
}

func TestCASAccounting(t *testing.T) {
	s, mm, eng := testSectored(t, core.Nop{})
	for i := 0; i < 20; i++ {
		read(s, eng, mem.Addr(0x300000)+mem.Addr(i*mem.LineBytes))
	}
	if s.CacheCAS() == 0 {
		t.Fatal("cache CAS must accumulate")
	}
	if mm.Stats().CAS() == 0 {
		t.Fatal("memory CAS must accumulate")
	}
	s.ResetStats()
	if s.CacheCAS() != 0 {
		t.Fatal("ResetStats must clear device stats")
	}
}
