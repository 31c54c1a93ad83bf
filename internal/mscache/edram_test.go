package mscache

import (
	"testing"

	"dap/internal/core"
	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/sim"
)

func testEDRAM(t *testing.T, part core.Partitioner) (*Sectored, *dram.Device, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	mm := dram.NewDevice(dram.DDR4_2400(), eng)
	cfg := DefaultEDRAM()
	cfg.CapacityBytes = 512 * mem.KiB // 32 sets x 16 ways
	e := NewEDRAM(cfg, eng, mm, part)
	return e, mm, eng
}

func eread(e *Sectored, eng *sim.Engine, a mem.Addr) {
	e.Read(a, 0, mem.ReadKind, nil)
	eng.Drain()
}

func TestEDRAMMissFillsViaWriteChannels(t *testing.T) {
	e, mm, eng := testEDRAM(t, core.Nop{})
	a := mem.Addr(0x1000)
	eread(e, eng, a)
	if e.st.ReadMisses != 1 {
		t.Fatalf("misses = %d", e.st.ReadMisses)
	}
	if mm.Stats().Reads == 0 {
		t.Fatal("miss must read main memory")
	}
	if e.wr.Stats().Writes != 1 {
		t.Fatal("fill must use the write channels")
	}
	if e.rd.Stats().Reads != 0 {
		t.Fatal("fill must not consume read-channel bandwidth")
	}
}

func TestEDRAMHitUsesReadChannels(t *testing.T) {
	e, _, eng := testEDRAM(t, core.Nop{})
	a := mem.Addr(0x2000)
	eread(e, eng, a)
	eread(e, eng, a)
	if e.st.ReadHits != 1 {
		t.Fatalf("hits = %d", e.st.ReadHits)
	}
	if e.rd.Stats().Reads != 1 {
		t.Fatal("hit must use the read channels")
	}
}

func TestEDRAMNoMetadataTraffic(t *testing.T) {
	e, _, eng := testEDRAM(t, core.Nop{})
	for i := 0; i < 50; i++ {
		eread(e, eng, mem.Addr(i*4096))
	}
	if e.st.MetaReads != 0 || e.st.MetaWrites != 0 {
		t.Fatal("eDRAM metadata is on-die SRAM: no metadata CAS")
	}
	if e.st.TagCacheMisses != 0 {
		t.Fatal("eDRAM has no tag cache")
	}
}

func TestEDRAMWritebackDirty(t *testing.T) {
	e, _, eng := testEDRAM(t, core.Nop{})
	a := mem.Addr(0x3000)
	e.Writeback(a, 0)
	eng.Drain()
	line := e.tags.Probe(a)
	if !line.Ok() || line.DMask()&e.blockBit(a) == 0 {
		t.Fatal("writeback must install dirty")
	}
	if e.wr.Stats().Writes != 1 {
		t.Fatal("writeback must use the write channels")
	}
}

func TestEDRAMEvictionUsesReadChannelsAndMemory(t *testing.T) {
	e, mm, eng := testEDRAM(t, core.Nop{})
	sets := e.tags.Sets
	// fill one set's 16 ways with dirty sectors, then overflow it
	for w := 0; w <= 16; w++ {
		e.Writeback(mem.Addr(uint64(w)*uint64(sets)*1024), 0)
		eng.Drain()
	}
	if e.st.SectorEvicts == 0 {
		t.Fatal("17th sector must evict")
	}
	if e.st.VictimReads == 0 || e.rd.Stats().Reads == 0 {
		t.Fatal("victim blocks are read out via the read channels")
	}
	if mm.Stats().Writes == 0 {
		t.Fatal("victim blocks must land in main memory")
	}
}

func TestEDRAMIFRMAndWB(t *testing.T) {
	stub := &dapStub{ifrm: 5, wb: 5}
	e, mm, eng := testEDRAM(t, stub)
	a := mem.Addr(0x4000)
	eread(e, eng, a) // clean resident
	mmR := mm.Stats().Reads
	eread(e, eng, a)
	if e.st.ForcedMisses != 1 || mm.Stats().Reads <= mmR {
		t.Fatal("IFRM must serve the clean hit from memory")
	}
	mmW := mm.Stats().Writes
	e.Writeback(a, 0)
	eng.Drain()
	if e.st.WriteBypasses != 1 || mm.Stats().Writes <= mmW {
		t.Fatal("WB must steer the write to memory")
	}
	if l := e.tags.Probe(a); l.Ok() && l.VMask()&e.blockBit(a) != 0 {
		t.Fatal("bypassed write must invalidate the cached block")
	}
}

func TestEDRAMFWB(t *testing.T) {
	stub := &dapStub{fwb: 5}
	e, _, eng := testEDRAM(t, stub)
	a := mem.Addr(0x5000)
	eread(e, eng, a)
	if e.st.FillBypasses != 1 {
		t.Fatal("fill must be bypassed")
	}
	if e.wr.Stats().Writes != 0 {
		t.Fatal("bypassed fill must not touch the write channels")
	}
}

func TestEDRAMWarm(t *testing.T) {
	e, mm, eng := testEDRAM(t, core.Nop{})
	a := mem.Addr(0x6000)
	e.WarmRead(a, 0)
	e.WarmWriteback(a, 0)
	if mm.Stats().CAS() != 0 || e.CacheCAS() != 0 {
		t.Fatal("warm paths are traffic-free")
	}
	eread(e, eng, a)
	if e.st.ReadHits != 1 {
		t.Fatal("warmed block must hit")
	}
}

func TestEDRAMWindowCounts(t *testing.T) {
	e, _, eng := testEDRAM(t, core.Nop{})
	a := mem.Addr(0x7000)
	eread(e, eng, a)
	wc := e.Windows()
	if wc.AMM != 1 || wc.Rm != 1 || wc.AMSW != 1 {
		t.Fatalf("miss accounting wrong: %+v", wc)
	}
	eread(e, eng, a)
	if wc.AMSR != 1 || wc.CleanHits != 1 {
		t.Fatalf("hit accounting wrong: %+v", wc)
	}
	e.Writeback(a, 0)
	eng.Drain()
	if wc.Wm != 1 {
		t.Fatalf("write accounting wrong: %+v", wc)
	}
}

func TestEDRAMCacheCASCombinesChannels(t *testing.T) {
	e, _, eng := testEDRAM(t, core.Nop{})
	a := mem.Addr(0x8000)
	eread(e, eng, a) // fill: 1 write CAS
	eread(e, eng, a) // hit: 1 read CAS
	if e.CacheCAS() != 2 {
		t.Fatalf("cache CAS = %d, want 2", e.CacheCAS())
	}
	e.ResetStats()
	if e.CacheCAS() != 0 {
		t.Fatal("reset must clear")
	}
}

// TestWritebackEntersWmWhenCounted: an eDRAM writeback adds to the
// window's Wm once its on-die tag lookup resolves, TagLat cycles after it
// arrives; a sectored DRAM cache writeback adds to Wm on arrival. A DAP
// window that closes in between sees the two differently.
func TestWritebackEntersWmWhenCounted(t *testing.T) {
	e, _, eng := testEDRAM(t, core.Nop{})
	lat := DefaultEDRAM().TagLat
	e.Writeback(0x9000, 0)
	eng.RunUntil(lat - 1)
	if wm := e.Windows().Wm; wm != 0 {
		t.Fatalf("eDRAM Wm = %d at cycle %d, before the %d-cycle tag lookup resolves", wm, eng.Now(), lat)
	}
	eng.RunUntil(lat)
	if wm := e.Windows().Wm; wm != 1 {
		t.Fatalf("eDRAM Wm = %d at cycle %d, want 1 once the tag lookup resolves", wm, eng.Now())
	}

	s, _, _ := testSectored(t, core.Nop{})
	s.Writeback(0x9000, 0)
	if wm := s.Windows().Wm; wm != 1 {
		t.Fatalf("sectored Wm = %d on arrival, want 1", wm)
	}
}
