package mscache

import (
	"dap/internal/cache"
	"dap/internal/core"
	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/obs"
	"dap/internal/sim"
	"dap/internal/stats"
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

// EDRAM is the sectored eDRAM cache controller.
type EDRAM struct {
	cfg  EDRAMConfig
	eng  *sim.Engine
	rdev *dram.Device // read channel set
	wdev *dram.Device // write channel set
	mm   *dram.Device

	tags *cache.Cache
	part core.Partitioner
	wc   core.WindowCounts
	st   stats.MemSideStats
	tr   *obs.Tracer

	sectorBlocks uint64

	// Pooled continuation records (see ops.go).
	fwd     fwdPool
	freeOps []*edramOp
}

// edramOp is the pooled continuation for one request suspended on the
// on-die tag lookup latency (reads carry their span and completion;
// writebacks carry neither).
type edramOp struct {
	e      *EDRAM
	addr   mem.Addr
	coreID int
	sp     *obs.Span
	done   func(mem.Cycle)
}

func (e *EDRAM) getOp(addr mem.Addr, coreID int, sp *obs.Span, done func(mem.Cycle)) *edramOp {
	var op *edramOp
	if n := len(e.freeOps); n > 0 {
		op = e.freeOps[n-1]
		e.freeOps = e.freeOps[:n-1]
	} else {
		op = &edramOp{}
	}
	op.e, op.addr, op.coreID, op.sp, op.done = e, addr, coreID, sp, done
	return op
}

func (e *EDRAM) putOp(op *edramOp) {
	op.sp, op.done = nil, nil
	e.freeOps = append(e.freeOps, op)
}

// NewEDRAM builds the controller.
func NewEDRAM(cfg EDRAMConfig, eng *sim.Engine, mm *dram.Device, part core.Partitioner) *EDRAM {
	e := &EDRAM{cfg: cfg, eng: eng, mm: mm, part: part}
	e.fwd.mm = mm
	e.rdev = dram.NewDevice(cfg.ReadArray, eng)
	e.wdev = dram.NewDevice(cfg.WriteArray, eng)
	e.sectorBlocks = uint64(cfg.SectorBytes / mem.LineBytes)
	sets := cfg.CapacityBytes / cfg.SectorBytes / cfg.Ways
	e.tags = cache.New(sets, cfg.Ways, cache.NRU, e.sectorBlocks)
	return e
}

// Windows exposes the window counters for the partitioner.
func (e *EDRAM) Windows() *core.WindowCounts { return &e.wc }

// MSStats implements Controller.
func (e *EDRAM) MSStats() *stats.MemSideStats { return &e.st }

// CacheCAS implements Controller (sum of both channel sets).
func (e *EDRAM) CacheCAS() uint64 {
	r, w := e.rdev.Stats(), e.wdev.Stats()
	return r.CAS() + w.CAS()
}

// ReadDevice and WriteDevice expose the channel sets.
func (e *EDRAM) ReadDevice() *dram.Device  { return e.rdev }
func (e *EDRAM) WriteDevice() *dram.Device { return e.wdev }

// ResetStats implements Controller.
func (e *EDRAM) ResetStats() {
	e.st = stats.MemSideStats{}
	e.rdev.ResetStats()
	e.wdev.ResetStats()
}

func (e *EDRAM) blockBit(a mem.Addr) uint64 {
	return 1 << (uint64(a.Line()) % e.sectorBlocks)
}

// Read implements cpu.Backend.
func (e *EDRAM) Read(addr mem.Addr, coreID int, kind mem.Kind, done func(mem.Cycle)) {
	addr = addr.LineAligned()
	sp := e.tr.Read(coreID, addr, kind)
	done = sp.Wrap(done)
	sp.Meta()
	e.eng.AfterArg(e.cfg.TagLat, edramReadTag, e.getOp(addr, coreID, sp, done), 0)
}

// edramReadTag resumes a read after the tag lookup latency.
func edramReadTag(ctx any, _ uint64, _ mem.Cycle) {
	op := ctx.(*edramOp)
	e, addr, coreID, sp, done := op.e, op.addr, op.coreID, op.sp, op.done
	e.putOp(op)
	bit := e.blockBit(addr)
	line := e.tags.Probe(addr)
	if line.Ok() && line.VMask()&bit != 0 {
		e.st.ReadHits++
		e.wc.AMSR++
		e.tags.Lookup(addr)
		dirty := line.DMask()&bit != 0
		if !dirty {
			e.wc.CleanHits++
			if e.part.TakeIFRM(coreID) {
				e.st.ForcedMisses++
				sp.Decide(stats.BDTechIFRM)
				sp.Serve(stats.BDSrcMain)
				e.mm.AccessTraced(addr, mem.ReadKind, obs.OnIssue(sp), done)
				return
			}
		}
		sp.Decide(stats.BDTechNone)
		sp.Serve(stats.BDSrcCache)
		e.rdev.AccessTraced(addr, mem.ReadKind, obs.OnIssue(sp), done)
		return
	}
	// read miss
	e.st.ReadMisses++
	e.wc.AMM++
	e.wc.Rm++
	sp.Decide(stats.BDTechNone)
	sp.Serve(stats.BDSrcMain)
	e.mm.AccessTraced(addr, mem.ReadKind, obs.OnIssue(sp), done)
	e.handleFill(addr, line)
}

// handleFill installs a missed block via the write channels; fills consult
// FWB credits. Unlike the DRAM cache, fills never steal read bandwidth.
func (e *EDRAM) handleFill(addr mem.Addr, line cache.Ref) {
	bit := e.blockBit(addr)
	if !line.Ok() {
		ev := e.tags.Insert(addr, false)
		if ev.Valid {
			e.evictSector(addr, ev)
		}
		line = e.tags.Probe(addr)
	}
	e.wc.AMSW++
	if e.part.TakeFWB() {
		e.st.FillBypasses++
		return
	}
	e.st.Fills++
	line.OrVMask(bit)
	line.ClearDMask(bit)
	e.wdev.Access(addr, mem.FillKind, nil)
}

// evictSector writes out a victim sector's dirty blocks (read channel to
// fetch, main memory to store).
func (e *EDRAM) evictSector(newAddr mem.Addr, ev cache.Line) {
	e.st.SectorEvicts++
	si, _ := e.tags.Index(newAddr)
	base := e.tags.LineAddr(si, ev.Tag)
	forEachBit(ev.DMask, func(i uint) {
		a := blockAddr(base, e.sectorBlocks, i)
		e.st.DirtyWriteouts++
		e.st.VictimReads++
		e.wc.AMSR++
		e.wc.AMM++
		e.rdev.Access(a, mem.VictimRdKind, e.fwd.forward(a))
	})
}

// Writeback implements cpu.Backend.
func (e *EDRAM) Writeback(addr mem.Addr, coreID int) {
	addr = addr.LineAligned()
	e.eng.AfterArg(e.cfg.TagLat, edramWBTag, e.getOp(addr, coreID, nil, nil), 0)
}

// edramWBTag resumes a writeback after the tag lookup latency.
func edramWBTag(ctx any, _ uint64, _ mem.Cycle) {
	op := ctx.(*edramOp)
	e, addr := op.e, op.addr
	e.putOp(op)
	e.wc.Wm++
	e.wc.AMSW++
	bit := e.blockBit(addr)
	line := e.tags.Probe(addr)
	present := line.Ok() && line.VMask()&bit != 0
	if e.part.TakeWB() {
		e.st.WriteBypasses++
		e.mm.Access(addr, mem.WritebackKind, nil)
		if present {
			line.ClearVMask(bit)
			line.ClearDMask(bit)
		}
		return
	}
	if present {
		e.st.WriteHits++
		line.OrDMask(bit)
		e.tags.Lookup(addr)
	} else {
		e.st.WriteMisses++
		if !line.Ok() {
			ev := e.tags.Insert(addr, false)
			if ev.Valid {
				e.evictSector(addr, ev)
			}
			line = e.tags.Probe(addr)
		}
		line.OrVMask(bit)
		line.OrDMask(bit)
	}
	e.wdev.Access(addr, mem.WritebackKind, nil)
}

// WarmRead implements cpu.Backend's functional path.
func (e *EDRAM) WarmRead(addr mem.Addr, coreID int) {
	addr = addr.LineAligned()
	bit := e.blockBit(addr)
	if line := e.tags.Probe(addr); line.Ok() {
		e.tags.Lookup(addr)
		line.OrVMask(bit)
		return
	}
	e.tags.Insert(addr, false)
	e.tags.Probe(addr).OrVMask(bit)
}

// WarmWriteback implements cpu.Backend's functional path.
func (e *EDRAM) WarmWriteback(addr mem.Addr, coreID int) {
	addr = addr.LineAligned()
	e.WarmRead(addr, coreID)
	if line := e.tags.Probe(addr); line.Ok() {
		line.OrDMask(e.blockBit(addr))
	}
}

// SetPartitioner replaces the partitioning policy (used after construction
// once the DAP instance has been wired to this controller's counters).
func (e *EDRAM) SetPartitioner(p core.Partitioner) { e.part = p }

// SetTracer attaches a request-lifecycle tracer (nil disables tracing; all
// hooks are nil-safe no-ops).
func (e *EDRAM) SetTracer(t *obs.Tracer) { e.tr = t }
