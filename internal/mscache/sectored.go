package mscache

import (
	"dap/internal/cache"
	"dap/internal/core"
	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/obs"
	"dap/internal/policy"
	"dap/internal/sim"
	"dap/internal/stats"
)

// SectoredConfig describes a die-stacked sectored DRAM cache (the paper's
// default memory-side cache: 4 KB sectors, four ways, NRU replacement,
// metadata stored in the DRAM array with an SRAM tag cache in front, and a
// footprint prefetcher).
type SectoredConfig struct {
	CapacityBytes int
	SectorBytes   int
	Ways          int

	// TagCacheEntries is the SRAM tag cache size (0 disables it: every
	// access pays an in-DRAM metadata fetch, the unoptimized baseline of
	// Figure 5). TagCacheWays and TagCacheLat follow the paper (4, 5).
	TagCacheEntries int
	TagCacheWays    int
	TagCacheLat     mem.Cycle

	// Replacement selects the sector replacement policy (default NRU, the
	// paper's choice; LRU/SRRIP/Rand are available for ablation).
	Replacement cache.ReplPolicy

	// Footprint enables the footprint prefetcher.
	Footprint bool
	// FootprintEntries bounds the history table.
	FootprintEntries int

	// Array is the DRAM configuration of the cache stack.
	Array dram.Config
}

// DefaultSectored returns the paper's default 4 GB / 102.4 GB/s point,
// subject to the repository's 64x capacity scale-down (64 MB).
func DefaultSectored() SectoredConfig {
	return SectoredConfig{
		CapacityBytes:    64 * mem.MiB,
		SectorBytes:      4096,
		Ways:             4,
		TagCacheEntries:  512,
		TagCacheWays:     4,
		TagCacheLat:      5,
		Replacement:      cache.NRU,
		Footprint:        true,
		FootprintEntries: 1 << 14,
		Array:            dram.HBM102(),
	}
}

// Sectored is the sectored DRAM cache controller.
type Sectored struct {
	cfg SectoredConfig
	eng *sim.Engine
	dev *dram.Device // the HBM stack
	mm  *dram.Device // shared main memory

	tags     *cache.Cache // authoritative sector metadata (SetSkip = blocks/sector)
	tagCache *cache.Cache // SRAM tag cache (nil when disabled)
	fp       *footprintTable

	part core.Partitioner
	wc   core.WindowCounts
	st   stats.MemSideStats
	tr   *obs.Tracer

	sectorBlocks uint64

	// Pooled continuation records (see ops.go).
	fwd     fwdPool
	freeTag []*tagOp
	freeFp  []*fpOp

	// Optional related-proposal policies (at most one non-nil).
	SBD    *policy.SBD
	BATMAN *policy.BATMAN
	// BATMANEpoch is the set-adjustment period in cycles.
	BATMANEpoch mem.Cycle

	// decRec, when non-nil, receives PolicyEvents at the baseline
	// policies' adjustment points (BATMAN epochs, SBD decays).
	decRec *core.DecisionRecorder
}

// tagOp is the pooled continuation for one tag-path lookup: it remembers
// which operation (read, writeback, write-through) resumes once the
// sector's metadata is known, plus the per-request state that operation
// needs. cb is prebound to tagDone.
type tagOp struct {
	s      *Sectored
	addr   mem.Addr
	coreID int
	stage  uint8
	sfrm   bool // an SFRM read was launched to main memory in parallel
	inst   bool // install the fetched metadata into the SRAM tag cache
	sp     *obs.Span
	done   func(mem.Cycle)
	cb     func(mem.Cycle)
}

const (
	opRead uint8 = iota
	opWriteback
	opWriteThrough
)

// tagOpChunk is how many pooled tagOps an empty free list allocates at
// once, so a fresh controller ramps to its steady-state depth in one block
// allocation instead of one per outstanding lookup.
const tagOpChunk = 32

func (s *Sectored) getTagOp(addr mem.Addr, coreID int, stage uint8, sp *obs.Span, done func(mem.Cycle)) *tagOp {
	var op *tagOp
	if n := len(s.freeTag); n > 0 {
		op = s.freeTag[n-1]
		s.freeTag = s.freeTag[:n-1]
	} else {
		blk := make([]tagOp, tagOpChunk)
		for i := tagOpChunk - 1; i >= 1; i-- {
			s.freeTag = append(s.freeTag, &blk[i])
		}
		op = &blk[0]
	}
	if op.cb == nil {
		op.cb = op.tagDone // bound once per record, on its first use
	}
	op.s, op.addr, op.coreID, op.stage, op.sp, op.done = s, addr, coreID, stage, sp, done
	op.sfrm, op.inst = false, false
	return op
}

func (op *tagOp) free() {
	op.sp, op.done = nil, nil
	op.s.freeTag = append(op.s.freeTag, op)
}

// tagDone resumes the suspended operation once the metadata is in hand.
func (op *tagOp) tagDone(mem.Cycle) {
	s := op.s
	if op.inst {
		s.installTagEntry(op.addr)
	}
	line := s.tags.Probe(op.addr)
	switch op.stage {
	case opRead:
		addr, coreID, sfrm, sp, done := op.addr, op.coreID, op.sfrm, op.sp, op.done
		op.free()
		s.readTagKnown(addr, coreID, sfrm, sp, done, line)
	case opWriteback:
		addr := op.addr
		op.free()
		s.wbTagKnown(addr, line)
	default: // opWriteThrough
		addr := op.addr
		op.free()
		s.wtTagKnown(addr, line)
	}
}

// tagOpRun adapts a pooled tagOp to the engine's typed-handler form for the
// SRAM tag-cache hit path (a fixed-latency resume, no device access).
func tagOpRun(ctx any, _ uint64, t mem.Cycle) { ctx.(*tagOp).tagDone(t) }

// fpOp is the pooled continuation for one footprint-prefetch block: the
// main-memory read's completion installs the block into the (possibly
// since-replaced) sector.
type fpOp struct {
	s  *Sectored
	ba mem.Addr
	b  uint64
	cb func(mem.Cycle)
}

func (s *Sectored) getFpOp(ba mem.Addr, b uint64) *fpOp {
	var f *fpOp
	if n := len(s.freeFp); n > 0 {
		f = s.freeFp[n-1]
		s.freeFp = s.freeFp[:n-1]
	} else {
		f = &fpOp{}
		f.cb = f.fill
	}
	f.s, f.ba, f.b = s, ba, b
	return f
}

func (f *fpOp) fill(mem.Cycle) {
	s, ba, b := f.s, f.ba, f.b
	s.freeFp = append(s.freeFp, f)
	if cur := s.tags.Probe(ba); cur.Ok() {
		s.st.Fills++
		cur.OrVMask(b)
		s.dev.Access(ba, mem.FillKind, nil)
	}
}

// NewSectored builds the controller. mm is the shared main-memory device;
// part decides partitioning (core.Nop{} for the baseline).
func NewSectored(cfg SectoredConfig, eng *sim.Engine, mm *dram.Device, part core.Partitioner) *Sectored {
	s := &Sectored{cfg: cfg, eng: eng, mm: mm, part: part}
	s.fwd.mm = mm
	s.dev = dram.NewDevice(cfg.Array, eng)
	s.sectorBlocks = uint64(cfg.SectorBytes / mem.LineBytes)
	sets := cfg.CapacityBytes / cfg.SectorBytes / cfg.Ways
	s.tags = cache.New(sets, cfg.Ways, cfg.Replacement, s.sectorBlocks)
	if cfg.TagCacheEntries > 0 {
		s.tagCache = cache.New(cfg.TagCacheEntries/cfg.TagCacheWays, cfg.TagCacheWays, cache.LRU, s.sectorBlocks)
	}
	if cfg.Footprint {
		n := cfg.FootprintEntries
		if n == 0 {
			n = 1 << 14
		}
		s.fp = newFootprintTable(n)
	}
	return s
}

// Windows exposes the window counters for the partitioner.
func (s *Sectored) Windows() *core.WindowCounts { return &s.wc }

// MSStats implements Controller.
func (s *Sectored) MSStats() *stats.MemSideStats { return &s.st }

// CacheCAS implements Controller.
func (s *Sectored) CacheCAS() uint64 { st := s.dev.Stats(); return st.CAS() }

// Device exposes the cache array (tests, bandwidth kernels).
func (s *Sectored) Device() *dram.Device { return s.dev }

// ResetStats implements Controller.
func (s *Sectored) ResetStats() {
	s.st = stats.MemSideStats{}
	s.dev.ResetStats()
}

// SetDecisionRecorder attaches the introspection recorder to the baseline
// policies: each BATMAN epoch evaluation and each SBD counter decay then
// captures a PolicyEvent. Call after SBD/BATMAN are assigned and before
// the run starts; passing nil detaches.
func (s *Sectored) SetDecisionRecorder(r *core.DecisionRecorder) {
	s.decRec = r
	if s.SBD == nil {
		return
	}
	if r == nil {
		s.SBD.OnDecay = nil
		return
	}
	sbd := s.SBD
	sbd.OnDecay = func() {
		s.decRec.AddPolicyEvent(core.PolicyEvent{
			Cycle: s.eng.Now(), Policy: "sbd",
			DirtyPages: sbd.DirtyPages(), SteeredMM: sbd.SteeredMM,
			Promotions: sbd.Promotions, Cleanings: sbd.Cleanings,
		})
	}
}

// StartBATMAN arms the periodic set-disable evaluation.
func (s *Sectored) StartBATMAN() {
	if s.BATMAN == nil {
		return
	}
	if s.BATMANEpoch == 0 {
		s.BATMANEpoch = 50000
	}
	var tick func()
	tick = func() {
		from, to := s.BATMAN.Epoch()
		for set := from; set < to; set++ {
			s.disableSet(set)
		}
		if s.decRec != nil {
			s.decRec.AddPolicyEvent(core.PolicyEvent{
				Cycle: s.eng.Now(), Policy: "batman",
				Epoch: s.BATMAN.Epochs, DisabledSets: s.BATMAN.DisabledSets(),
			})
		}
		s.eng.After(s.BATMANEpoch, tick)
	}
	s.eng.After(s.BATMANEpoch, tick)
}

// disableSet cleans and invalidates one cache set (BATMAN).
func (s *Sectored) disableSet(set int) {
	s.tags.InvalidateSet(set, func(l cache.Ref) {
		base := s.tags.LineAddr(set, l.Tag())
		forEachBit(l.DMask(), func(i uint) {
			s.writeoutDirtyBlock(blockAddr(base, s.sectorBlocks, i))
		})
		if s.fp != nil {
			s.fp.record(uint64(base)/s.sectorBlocks/mem.LineBytes, l.VMask())
		}
	})
}

// writeoutDirtyBlock reads a dirty block from the cache array and writes it
// to main memory (the read->write chain is bandwidth-accurate).
func (s *Sectored) writeoutDirtyBlock(a mem.Addr) {
	s.st.DirtyWriteouts++
	s.st.VictimReads++
	s.wc.AMSR++
	s.wc.AMM++
	s.dev.Access(a, mem.VictimRdKind, s.fwd.forward(a))
}

// sectorOf returns the sector index of an address.
func (s *Sectored) sectorOf(a mem.Addr) uint64 {
	return uint64(a) / uint64(s.cfg.SectorBytes)
}

func (s *Sectored) blockBit(a mem.Addr) uint64 {
	return 1 << (uint64(a.Line()) % s.sectorBlocks)
}

// markMetaDirty records a metadata mutation: absorbed by a present tag-cache
// entry, else an immediate in-DRAM metadata update.
func (s *Sectored) markMetaDirty(a mem.Addr) {
	if s.tagCache != nil {
		if e := s.tagCache.Probe(a); e.Ok() {
			e.MarkDirty()
			return
		}
	}
	s.st.MetaWrites++
	s.wc.AMSW++
	s.dev.Access(a, mem.MetaWriteKind, nil)
}

// tagPath performs the metadata lookup and resumes op (via tagDone) when
// the sector's state is known. op.sfrm records whether an SFRM read was
// launched to main memory in parallel (the resumed operation must not
// launch a second one).
func (s *Sectored) tagPath(op *tagOp, isRead bool) {
	a := op.addr
	if s.tagCache == nil {
		// no tag cache: every access fetches metadata from the DRAM array
		s.st.MetaReads++
		s.wc.AMSR++
		op.sfrm = isRead && s.part.TakeSFRM()
		s.dev.Access(a, mem.MetaReadKind, op.cb)
		return
	}
	if s.tagCache.Lookup(a).Ok() {
		s.st.TagCacheHits++
		s.eng.AfterArg(s.cfg.TagCacheLat, tagOpRun, op, 0)
		return
	}
	s.st.TagCacheMisses++
	s.st.MetaReads++
	s.wc.AMSR++
	op.sfrm = isRead && s.part.TakeSFRM()
	op.inst = true
	s.dev.Access(a, mem.MetaReadKind, op.cb)
}

// installTagEntry fills the SRAM tag cache; dirty victims update metadata in
// the DRAM array.
func (s *Sectored) installTagEntry(a mem.Addr) {
	ev := s.tagCache.Insert(a, false)
	if ev.Valid && ev.Dirty {
		si, _ := s.tagCache.Index(a)
		va := s.tagCache.LineAddr(si, ev.Tag)
		s.st.MetaWrites++
		s.wc.AMSW++
		s.dev.Access(va, mem.MetaWriteKind, nil)
	}
}

// Read implements cpu.Backend: an L3 read miss (or hardware prefetch).
func (s *Sectored) Read(addr mem.Addr, coreID int, kind mem.Kind, done func(mem.Cycle)) {
	addr = addr.LineAligned()
	sp := s.tr.Read(coreID, addr, kind)
	done = sp.Wrap(done)

	// BATMAN: disabled sets go straight to main memory, no allocation.
	// These accesses count as misses in the hit-rate feedback — that is
	// the equilibrium the proposal's set disabling relies on.
	if s.BATMAN != nil {
		if set, _ := s.tags.Index(addr); s.BATMAN.Disabled(set) {
			s.BATMAN.NoteLookup(false)
			s.st.ReadMisses++
			s.wc.AMM++
			sp.Serve(stats.BDSrcMain)
			s.mm.AccessTraced(addr, kind, obs.OnIssue(sp), done)
			return
		}
	}

	// SBD: steer predicted hits of provably write-through pages to the
	// less loaded source; only such pages are memory-consistent.
	if s.SBD != nil {
		page := addr >> 12
		if s.SBD.Steerable(page) && s.SBD.PredictHit() {
			line := s.tags.Probe(addr)
			if s.steerMM() {
				s.st.ForcedMisses++
				if line.Ok() && line.VMask()&s.blockBit(addr) != 0 {
					s.st.ReadHits++
				} else {
					s.st.ReadMisses++
				}
				s.wc.AMM++
				sp.Serve(stats.BDSrcMain)
				s.mm.AccessTraced(addr, kind, obs.OnIssue(sp), done)
				return
			}
		}
	}

	sp.Meta()
	s.tagPath(s.getTagOp(addr, coreID, opRead, sp, done), true)
}

// readTagKnown finishes a demand read once the sector's metadata is known
// (the opRead continuation of tagPath).
func (s *Sectored) readTagKnown(addr mem.Addr, coreID int, sfrm bool, sp *obs.Span, done func(mem.Cycle), line cache.Ref) {
	bit := s.blockBit(addr)
	present := line.Ok() && line.VMask()&bit != 0
	if s.SBD != nil {
		s.SBD.NoteReadOutcome(present)
	}
	if s.BATMAN != nil {
		s.BATMAN.NoteLookup(present)
	}
	if present {
		s.st.ReadHits++
		s.wc.AMSR++         // the data read this hit demands
		s.tags.Lookup(addr) // NRU recency
		dirty := line.DMask()&bit != 0
		if !dirty {
			s.wc.CleanHits++
		}
		switch {
		case sfrm && dirty:
			// speculative main-memory read was wasted; data must
			// come from the cache array
			s.st.SpecForced++
			s.st.SpecWasted++
			sp.Decide(stats.BDTechSFRM)
			sp.Serve(stats.BDSrcCache)
			s.dev.AccessTraced(addr, mem.ReadKind, obs.OnIssue(sp), done)
		case sfrm:
			// clean hit already being served by main memory
			s.st.SpecForced++
			sp.Decide(stats.BDTechSFRM)
			sp.Serve(stats.BDSrcMain)
			s.mm.AccessTraced(addr, mem.ReadKind, obs.OnIssue(sp), done)
		case !dirty && s.part.TakeIFRM(coreID):
			s.st.ForcedMisses++
			sp.Decide(stats.BDTechIFRM)
			sp.Serve(stats.BDSrcMain)
			s.mm.AccessTraced(addr, mem.ReadKind, obs.OnIssue(sp), done)
		default:
			sp.Decide(stats.BDTechNone)
			sp.Serve(stats.BDSrcCache)
			s.dev.AccessTraced(addr, mem.ReadKind, obs.OnIssue(sp), done)
		}
		return
	}
	// read miss
	s.st.ReadMisses++
	s.wc.AMM++
	s.wc.Rm++
	sp.Decide(stats.BDTechNone)
	sp.Serve(stats.BDSrcMain)
	s.mm.AccessTraced(addr, mem.ReadKind, obs.OnIssue(sp), done)
	s.handleFill(addr, line)
}

// steerMM applies SBD's expected-latency comparison using live queue depths.
func (s *Sectored) steerMM() bool {
	// service ~ burst occupancy per access; base ~ unloaded latencies
	return s.SBD.SteerToMM(s.mm.QueueLen(), s.dev.QueueLen(), 14, 10, 96, 60)
}

// handleFill performs read-miss fill handling: fill the block if the sector
// is resident, else allocate a sector (evicting a victim) and trigger the
// footprint fetch. Every intended fill consults FWB credits.
func (s *Sectored) handleFill(addr mem.Addr, line cache.Ref) {
	bit := s.blockBit(addr)
	if line.Ok() {
		// sector resident, block absent: a simple block fill
		s.wc.AMSW++
		if s.part.TakeFWB() {
			s.st.FillBypasses++
			return
		}
		s.st.Fills++
		line.OrVMask(bit)
		line.ClearDMask(bit)
		s.dev.Access(addr, mem.FillKind, nil)
		s.markMetaDirty(addr)
		return
	}
	// allocate a sector
	ev := s.tags.Insert(addr, false)
	if ev.Valid {
		s.evictSector(addr, ev)
	}
	nl := s.tags.Probe(addr)
	s.markMetaDirty(addr)

	// demanded block fill
	s.wc.AMSW++
	if s.part.TakeFWB() {
		s.st.FillBypasses++
	} else {
		s.st.Fills++
		nl.OrVMask(bit)
		s.dev.Access(addr, mem.FillKind, nil)
	}

	// footprint fetch for the rest of the predicted footprint
	if s.fp == nil {
		return
	}
	mask := s.fp.predict(s.sectorOf(addr)) &^ bit
	forEachBit(mask, func(i uint) {
		ba := blockAddr(addr, s.sectorBlocks, i)
		s.wc.AMM++
		s.wc.Rm++
		s.wc.AMSW++
		if s.part.TakeFWB() {
			s.st.FillBypasses++
			return
		}
		b := s.blockBit(ba)
		s.mm.Access(ba, mem.ReadKind, s.getFpOp(ba, b).cb)
	})
}

// evictSector handles a victim sector: record its footprint and write out
// its dirty blocks.
func (s *Sectored) evictSector(newAddr mem.Addr, ev cache.Line) {
	s.st.SectorEvicts++
	si, _ := s.tags.Index(newAddr)
	base := s.tags.LineAddr(si, ev.Tag)
	if s.fp != nil {
		s.fp.record(s.sectorOf(base), ev.VMask)
	}
	forEachBit(ev.DMask, func(i uint) {
		s.writeoutDirtyBlock(blockAddr(base, s.sectorBlocks, i))
	})
	// drop any stale tag-cache copy of the victim's metadata
	if s.tagCache != nil {
		s.tagCache.Invalidate(base)
	}
}

// Writeback implements cpu.Backend: a dirty L3 eviction.
func (s *Sectored) Writeback(addr mem.Addr, coreID int) {
	addr = addr.LineAligned()
	s.wc.Wm++

	if s.BATMAN != nil {
		if set, _ := s.tags.Index(addr); s.BATMAN.Disabled(set) {
			s.mm.Access(addr, mem.WritebackKind, nil)
			return
		}
	}

	// SBD write handling: write-through pages write both levels; a
	// promotion may force-clean an evicted Dirty List page.
	if s.SBD != nil {
		page := addr >> 12
		evicted, mustClean := s.SBD.NoteWrite(page)
		if mustClean {
			s.cleanPage(evicted)
		}
		if !s.SBD.InDirtyList(page) {
			s.writeThrough(addr, coreID)
			return
		}
	}

	s.tagPath(s.getTagOp(addr, coreID, opWriteback, nil, nil), false)
}

// wbTagKnown finishes a dirty L3 eviction once the sector's metadata is
// known (the opWriteback continuation of tagPath).
func (s *Sectored) wbTagKnown(addr mem.Addr, line cache.Ref) {
	bit := s.blockBit(addr)
	present := line.Ok() && line.VMask()&bit != 0
	s.wc.AMSW++ // the cache write this eviction demands
	if s.part.TakeWB() {
		s.st.WriteBypasses++
		s.mm.Access(addr, mem.WritebackKind, nil)
		if present {
			// the stale cache copy must be invalidated
			line.ClearVMask(bit)
			line.ClearDMask(bit)
			s.markMetaDirty(addr)
		}
		return
	}
	if present {
		s.st.WriteHits++
		line.OrDMask(bit)
		s.tags.Lookup(addr)
	} else {
		s.st.WriteMisses++
		if !line.Ok() {
			ev := s.tags.Insert(addr, false)
			if ev.Valid {
				s.evictSector(addr, ev)
			}
			line = s.tags.Probe(addr)
		}
		line.OrVMask(bit)
		line.OrDMask(bit)
	}
	s.markMetaDirty(addr)
	s.dev.Access(addr, mem.WritebackKind, nil)
}

// writeThrough writes a block to both the cache and main memory, leaving the
// cached copy clean (SBD write-through mode). The cache side behaves like a
// normal allocating write — write-through only adds the memory copy.
func (s *Sectored) writeThrough(addr mem.Addr, coreID int) {
	s.tagPath(s.getTagOp(addr, coreID, opWriteThrough, nil, nil), false)
}

// wtTagKnown finishes an SBD write-through once the sector's metadata is
// known (the opWriteThrough continuation of tagPath).
func (s *Sectored) wtTagKnown(addr mem.Addr, line cache.Ref) {
	bit := s.blockBit(addr)
	s.wc.AMSW++
	s.mm.Access(addr, mem.WritebackKind, nil)
	if line.Ok() && line.VMask()&bit != 0 {
		s.st.WriteHits++
	} else {
		s.st.WriteMisses++
		if !line.Ok() {
			ev := s.tags.Insert(addr, false)
			if ev.Valid {
				s.evictSector(addr, ev)
			}
			line = s.tags.Probe(addr)
		}
		line.OrVMask(bit)
	}
	line.ClearDMask(bit) // clean: main memory holds the latest copy
	s.tags.Lookup(addr)
	s.markMetaDirty(addr)
	s.dev.Access(addr, mem.WritebackKind, nil)
}

// cleanPage writes out all dirty blocks of a page falling out of SBD's
// Dirty List.
func (s *Sectored) cleanPage(page mem.Addr) {
	base := page << 12
	for off := mem.Addr(0); off < 4096; off += mem.LineBytes {
		a := base + off
		if l := s.tags.Probe(a); l.Ok() {
			bit := s.blockBit(a)
			if l.DMask()&bit != 0 {
				l.ClearDMask(bit)
				s.writeoutDirtyBlock(a)
				s.markMetaDirty(a)
			}
		}
	}
}

// WarmRead implements cpu.Backend's functional warmup path.
func (s *Sectored) WarmRead(addr mem.Addr, coreID int) {
	addr = addr.LineAligned()
	if s.tagCache != nil && !s.tagCache.Lookup(addr).Ok() {
		s.installTagEntry(addr)
	}
	bit := s.blockBit(addr)
	if line := s.tags.Probe(addr); line.Ok() {
		s.tags.Lookup(addr)
		line.OrVMask(bit)
		return
	}
	ev := s.tags.Insert(addr, false)
	if ev.Valid {
		si, _ := s.tags.Index(addr)
		base := s.tags.LineAddr(si, ev.Tag)
		if s.fp != nil {
			s.fp.record(s.sectorOf(base), ev.VMask)
		}
		if s.tagCache != nil {
			s.tagCache.Invalidate(base)
		}
	}
	nl := s.tags.Probe(addr)
	nl.OrVMask(bit)
	if s.fp != nil {
		nl.OrVMask(s.fp.predict(s.sectorOf(addr)))
	}
}

// WarmWriteback implements cpu.Backend's functional warmup path.
func (s *Sectored) WarmWriteback(addr mem.Addr, coreID int) {
	addr = addr.LineAligned()
	s.WarmRead(addr, coreID)
	if line := s.tags.Probe(addr); line.Ok() {
		line.OrDMask(s.blockBit(addr))
	}
}

// SetPartitioner replaces the partitioning policy (used after construction
// once the DAP instance has been wired to this controller's counters).
func (s *Sectored) SetPartitioner(p core.Partitioner) { s.part = p }

// SetTracer attaches a request-lifecycle tracer (nil disables tracing; all
// hooks are nil-safe no-ops).
func (s *Sectored) SetTracer(t *obs.Tracer) { s.tr = t }
