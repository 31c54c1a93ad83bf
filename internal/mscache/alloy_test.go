package mscache

import (
	"testing"

	"dap/internal/core"
	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/sim"
)

func testAlloy(t *testing.T, bear bool, part core.Partitioner) (*Alloy, *dram.Device, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	mm := dram.NewDevice(dram.DDR4_2400(), eng)
	cfg := DefaultAlloy()
	cfg.CapacityBytes = 256 * mem.KiB // 4096 sets
	cfg.BEAR = bear
	a := NewAlloy(cfg, eng, mm, part)
	return a, mm, eng
}

// alloyLine reports whether addr is cached and, if so, whether it is dirty.
func alloyLine(a *Alloy, addr mem.Addr) (present, dirty bool) {
	set, hit := a.tags.lookup(addr)
	return hit, hit && a.tags.dirty[set/64]&(1<<(set%64)) != 0
}

func areadLat(a *Alloy, eng *sim.Engine, addr mem.Addr) mem.Cycle {
	var lat mem.Cycle
	start := eng.Now()
	a.Read(addr, 0, mem.ReadKind, func(d mem.Cycle) { lat = d - start })
	eng.Drain()
	return lat
}

func TestAlloyMissThenHit(t *testing.T) {
	a, mm, eng := testAlloy(t, false, core.Nop{})
	addr := mem.Addr(0x1000)
	areadLat(a, eng, addr)
	if a.st.ReadMisses != 1 || a.st.Fills != 1 {
		t.Fatalf("stats = %+v", a.st)
	}
	mmCAS := mm.Stats().CAS()
	areadLat(a, eng, addr)
	if a.st.ReadHits != 1 {
		t.Fatalf("hits = %d", a.st.ReadHits)
	}
	// the hit may still launch a parallel memory access only if the
	// predictor said miss; after one round trips it has trained to hit
	if got := mm.Stats().CAS(); got > mmCAS+1 {
		t.Fatalf("hit generated %d memory CAS", got-mmCAS)
	}
}

func TestAlloyTADBandwidthBloat(t *testing.T) {
	a, _, eng := testAlloy(t, false, core.Nop{})
	for i := 0; i < 64; i++ {
		a.Read(mem.Addr(i*mem.LineBytes), 0, mem.ReadKind, nil)
	}
	eng.Drain()
	st := a.dev.Stats()
	// every array access is a 3-device-clock TAD: busy = CAS * 15 CPU cycles
	perAccess := float64(st.BusyCycles) / float64(st.CAS())
	if perAccess < 14.9 || perAccess > 15.1 {
		t.Fatalf("TAD bus occupancy = %.2f CPU cycles, want 15", perAccess)
	}
}

func TestAlloyDirectMappedConflict(t *testing.T) {
	a, _, eng := testAlloy(t, false, core.Nop{})
	x := mem.Addr(0)
	y := x + mem.Addr(len(a.tags.tv)*mem.LineBytes) // same set
	areadLat(a, eng, x)
	areadLat(a, eng, y)
	if present, _ := alloyLine(a, x); present {
		t.Fatal("direct-mapped conflict must evict x")
	}
	areadLat(a, eng, x)
	if a.st.ReadMisses != 3 {
		t.Fatalf("read misses = %d, want 3 (conflict thrash)", a.st.ReadMisses)
	}
}

func TestAlloyBaselineWritebackFetchesTAD(t *testing.T) {
	a, _, eng := testAlloy(t, false, core.Nop{})
	addr := mem.Addr(0x2000)
	areadLat(a, eng, addr)
	metaBefore := a.st.MetaReads
	a.Writeback(addr, 0)
	eng.Drain()
	if a.st.MetaReads != metaBefore+1 {
		t.Fatal("baseline Alloy write must fetch the TAD first")
	}
	if present, dirty := alloyLine(a, addr); !present || !dirty {
		t.Fatal("write hit must mark dirty")
	}
}

func TestAlloyBEARWritebackSkipsTADFetch(t *testing.T) {
	a, _, eng := testAlloy(t, true, core.Nop{})
	addr := mem.Addr(0x3000)
	areadLat(a, eng, addr)
	metaBefore := a.st.MetaReads
	a.Writeback(addr, 0)
	eng.Drain()
	if a.st.MetaReads != metaBefore {
		t.Fatal("BEAR presence bit must skip the TAD fetch")
	}
}

func TestAlloyDirtyVictimWrittenToMemory(t *testing.T) {
	a, mm, eng := testAlloy(t, true, core.Nop{})
	x := mem.Addr(0x100)
	y := x + mem.Addr(len(a.tags.tv)*mem.LineBytes)
	a.Writeback(x, 0) // dirty resident line
	eng.Drain()
	w := mm.Stats().Writes
	areadLat(a, eng, y) // conflicting fill evicts dirty x
	if mm.Stats().Writes <= w {
		t.Fatal("dirty victim must be written to main memory")
	}
	if a.st.DirtyWriteouts == 0 {
		t.Fatal("dirty writeout must be counted")
	}
}

func TestAlloyDBCTracksDirtySets(t *testing.T) {
	a, _, eng := testAlloy(t, true, core.Nop{})
	addr := mem.Addr(0x4000)
	a.Writeback(addr, 0)
	eng.Drain()
	_, group, bit := a.setOf(addr)
	e := a.dbc.lookup(group)
	if e < 0 || a.dbc.bits[e]&bit == 0 {
		t.Fatal("write must set the DBC dirty bit")
	}
}

func TestAlloyIFRMSkipsTADForCleanSet(t *testing.T) {
	stub := &dapStub{ifrm: 10}
	a, mm, eng := testAlloy(t, true, stub)
	addr := mem.Addr(0x5000)
	areadLat(a, eng, addr) // fill clean
	// ensure a DBC entry exists for the group (a write elsewhere installs it)
	other := addr + 2*mem.LineBytes
	a.Writeback(other, 0)
	eng.Drain()
	devCAS := a.dev.Stats().CAS()
	mmR := mm.Stats().Reads
	areadLat(a, eng, addr)
	if a.st.ForcedMisses != 1 {
		t.Fatalf("forced misses = %d", a.st.ForcedMisses)
	}
	if a.dev.Stats().CAS() != devCAS {
		t.Fatal("forced miss must skip the TAD access entirely")
	}
	if mm.Stats().Reads <= mmR {
		t.Fatal("forced miss must read from main memory")
	}
}

func TestAlloyIFRMNotAppliedToDirtySet(t *testing.T) {
	stub := &dapStub{ifrm: 10}
	a, _, eng := testAlloy(t, true, stub)
	addr := mem.Addr(0x6000)
	a.Writeback(addr, 0) // dirty; DBC knows
	eng.Drain()
	areadLat(a, eng, addr)
	if a.st.ForcedMisses != 0 {
		t.Fatal("dirty set must never be forced to memory")
	}
}

// wtStub grants write-through credits only.
type wtStub struct{ core.Nop }

func (wtStub) TakeWT() bool { return true }

func TestAlloyWriteThroughKeepsClean(t *testing.T) {
	a, mm, eng := testAlloy(t, true, wtStub{})
	addr := mem.Addr(0x7000)
	areadLat(a, eng, addr)
	w := mm.Stats().Writes
	a.Writeback(addr, 0)
	eng.Drain()
	if mm.Stats().Writes <= w {
		t.Fatal("write-through must copy the write to main memory")
	}
	if present, dirty := alloyLine(a, addr); !present || dirty {
		t.Fatal("written-through line must stay clean")
	}
	_, group, bit := a.setOf(addr)
	if e := a.dbc.lookup(group); e < 0 || a.dbc.bits[e]&bit != 0 {
		t.Fatal("DBC must mark the set clean after write-through")
	}
}

func TestAlloyHitPredictorTrains(t *testing.T) {
	a, _, eng := testAlloy(t, false, core.Nop{})
	addr := mem.Addr(0x8000)
	if !a.predictHit(addr, 0) {
		t.Fatal("predictor starts weakly predicting hit")
	}
	// repeated misses to the region train it toward miss
	for i := 0; i < 8; i++ {
		x := addr + mem.Addr(i)*mem.Addr(len(a.tags.tv))*mem.LineBytes
		areadLat(a, eng, x)
	}
	if a.predictHit(addr, 0) {
		t.Fatal("repeated misses must flip the prediction")
	}
}

func TestAlloyEffectiveBandwidth(t *testing.T) {
	if got := AlloyEffectiveGBps(102.4); got < 68.2 || got > 68.3 {
		t.Fatalf("effective = %v, want 68.27", got)
	}
}

func TestAlloyWarmPaths(t *testing.T) {
	a, mm, eng := testAlloy(t, true, core.Nop{})
	addr := mem.Addr(0x9000)
	a.WarmRead(addr, 0)
	a.WarmWriteback(addr+mem.LineBytes, 0)
	if mm.Stats().CAS() != 0 || a.dev.Stats().CAS() != 0 {
		t.Fatal("warm paths must be traffic-free")
	}
	areadLat(a, eng, addr)
	if a.st.ReadHits != 1 {
		t.Fatal("warmed line must hit")
	}
}

func TestDBCReplacement(t *testing.T) {
	d := newDBC(8, 2) // 4 sets x 2 ways
	for g := uint64(0); g < 16; g++ {
		d.install(g, uint64(g))
	}
	// recently installed groups must be present, older ones evicted
	if d.lookup(15) < 0 || d.lookup(14) < 0 {
		t.Fatal("recent groups must survive")
	}
	found := 0
	for g := uint64(0); g < 16; g++ {
		if d.lookup(g) >= 0 {
			found++
		}
	}
	if found > 8 {
		t.Fatalf("dbc holds %d groups, capacity is 8", found)
	}
}

// TestAlloyFillBypassSparesWriteMisses: DAP's fill bypass covers read-miss
// fills only. A write miss carries the written data, so even with FWB
// credits on offer it must install the line dirty and leave the credit.
func TestAlloyFillBypassSparesWriteMisses(t *testing.T) {
	stub := &dapStub{fwb: 10}
	a, _, eng := testAlloy(t, true, stub)
	addr := mem.Addr(0xa000)
	a.Writeback(addr, 0)
	eng.Drain()
	if present, dirty := alloyLine(a, addr); !present || !dirty {
		t.Fatalf("write miss with FWB credits: present=%v dirty=%v, want a dirty install", present, dirty)
	}
	if a.st.FillBypasses != 0 || stub.fwb != 10 {
		t.Fatalf("write-miss fill bypassed %d times, credits left %d", a.st.FillBypasses, stub.fwb)
	}
	other := addr + 4*mem.LineBytes
	areadLat(a, eng, other)
	if present, _ := alloyLine(a, other); present || a.st.FillBypasses != 1 {
		t.Fatalf("read-miss fill with an FWB credit: present=%v bypasses=%d, want bypassed", present, a.st.FillBypasses)
	}
}

// TestAlloyAuditCatchesStaleDBC: the audit passes on consistent metadata,
// and fails once the DBC calls a dirty set clean (a forced miss would then
// read a stale copy from main memory) or a dirty bit sits on an empty set.
func TestAlloyAuditCatchesStaleDBC(t *testing.T) {
	a, _, eng := testAlloy(t, true, core.Nop{})
	addr := mem.Addr(0xb000)
	a.Writeback(addr, 0)
	areadLat(a, eng, addr+mem.LineBytes)
	if err := a.AuditInvariants(); err != nil {
		t.Fatalf("consistent metadata failed the audit: %v", err)
	}
	set, group, bit := a.setOf(addr)
	e := a.dbc.lookup(group)
	a.dbc.bits[e] &^= bit
	if err := a.AuditInvariants(); err == nil {
		t.Fatal("a DBC entry missing a dirty set passed the audit")
	}
	a.dbc.bits[e] |= bit

	empty := set + 2
	a.tags.setDirty(empty, true)
	a.dbc.bits[e] |= 1 << (empty % 64)
	if err := a.AuditInvariants(); err == nil {
		t.Fatal("a dirty bit on an invalid set passed the audit")
	}
}
