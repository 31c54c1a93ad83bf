package mscache

import (
	"dap/internal/core"
	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/obs"
	"dap/internal/sim"
	"dap/internal/stats"
)

// AlloyConfig describes an Alloy cache: a direct-mapped DRAM cache whose
// tag and data (TAD) are fused in the array, so every array access moves a
// 72 B TAD over three HBM clocks instead of two — the bandwidth bloat BEAR
// and DAP manage (Section VI-B).
type AlloyConfig struct {
	CapacityBytes int
	// TADBurst is the device-clock occupancy of one TAD transfer.
	TADBurst uint8

	// BEAR enables the BEAR optimizations: the L3 presence bit that lets
	// dirty writebacks skip the TAD fetch, a dead-fill bypass predictor,
	// and miss-probe avoidance for predicted misses on known-clean sets.
	// DAP also relies on the presence bit (Section IV-B).
	BEAR bool

	// DBCEntries/DBCWays size the SRAM dirty-bit cache used by DAP's
	// forced misses; each entry covers a stretch of 64 consecutive sets.
	DBCEntries int
	DBCWays    int
	DBCLat     mem.Cycle

	Array dram.Config
}

// DefaultAlloy returns the paper's Alloy point at the 64x capacity scale.
func DefaultAlloy() AlloyConfig {
	return AlloyConfig{
		CapacityBytes: 64 * mem.MiB,
		TADBurst:      3,
		DBCEntries:    512,
		DBCWays:       4,
		DBCLat:        5,
		Array:         dram.HBM102(),
	}
}

// AlloyEffectiveGBps returns the data bandwidth usable by an Alloy cache:
// only two of every three TAD bus cycles carry data (Section VI-B).
func AlloyEffectiveGBps(peak float64) float64 { return peak * 2 / 3 }

// dbc is the dirty-bit cache: a small SRAM set-associative structure whose
// entries each hold the dirty bits of 64 consecutive direct-mapped sets.
// Storage is structure-of-arrays: gv packs group<<1|valid so a probe is one
// word compare per way over a contiguous row, with the dirty bits and LRU
// ticks in parallel arrays touched only on the matching way.
type dbc struct {
	sets, ways int
	gv         []uint64 // group<<1 | valid
	bits       []uint64 // dirty bit per set in the group
	lru        []uint64
	tick       uint64
}

func newDBC(entries, ways int) *dbc {
	if ways <= 0 {
		ways = 4
	}
	sets := entries / ways
	if sets <= 0 {
		sets = 1
	}
	n := sets * ways
	return &dbc{
		sets: sets, ways: ways,
		gv: make([]uint64, n), bits: make([]uint64, n), lru: make([]uint64, n),
	}
}

// lookup returns the entry index for a group, or -1 on a DBC miss.
func (d *dbc) lookup(group uint64) int {
	d.tick++
	base := int(group%uint64(d.sets)) * d.ways
	want := group<<1 | 1
	for i := base; i < base+d.ways; i++ {
		if d.gv[i] == want {
			d.lru[i] = d.tick
			return i
		}
	}
	return -1
}

// install allocates an entry for group with the given initial bits and
// returns its index.
func (d *dbc) install(group, bits uint64) int {
	d.tick++
	base := int(group%uint64(d.sets)) * d.ways
	v := base
	for i := base; i < base+d.ways; i++ {
		if d.gv[i]&1 == 0 {
			v = i
			break
		}
		if d.lru[i] < d.lru[v] {
			v = i
		}
	}
	d.gv[v] = group<<1 | 1
	d.bits[v] = bits
	d.lru[v] = d.tick
	return v
}

// Alloy is the Alloy cache controller.
type Alloy struct {
	cfg AlloyConfig
	eng *sim.Engine
	dev *dram.Device
	mm  *dram.Device

	tags *dmTags
	dbc  *dbc

	part core.Partitioner
	wc   core.WindowCounts
	st   stats.MemSideStats
	tr   *obs.Tracer

	// hit/miss predictor: 2-bit counters hashed by 4 KB region and core.
	pred []uint8
	// fill-bypass predictor (BEAR): 2-bit usefulness counters trained by
	// observed fill reuse.
	fillPred []uint8

	// Pooled continuation records (see ops.go).
	fwd     fwdPool
	freeOps []*alloyOp
}

// alloyOp is the pooled continuation for one Alloy request. A read may
// have up to two outstanding completions at once (the parallel-miss TAD
// probe and main-memory access), so the record is reference-counted: each
// issued callback holds one reference and drops it when it will touch the
// record no further; the record recycles at zero. The callback fields are
// prebound method values, created once per record.
type alloyOp struct {
	a      *Alloy
	addr   mem.Addr
	coreID int
	sp     *obs.Span
	done   func(mem.Cycle)

	refs      int8
	launchPar bool // main-memory access launched alongside the TAD probe
	bearHit   bool // BEAR miss-probe-avoidance path: the line was present
	mmArrived bool
	tadMiss   bool
	resolved  bool
	mmT       mem.Cycle

	mmCB, tadCB, finCB, bearCB, wbCB func(mem.Cycle)
}

func (a *Alloy) getOp(addr mem.Addr, coreID int, sp *obs.Span, done func(mem.Cycle)) *alloyOp {
	var op *alloyOp
	if n := len(a.freeOps); n > 0 {
		op = a.freeOps[n-1]
		a.freeOps = a.freeOps[:n-1]
	} else {
		op = &alloyOp{}
		op.mmCB = op.mmDone
		op.tadCB = op.tadDone
		op.finCB = op.fin
		op.bearCB = op.bear
		op.wbCB = op.wbTadDone
	}
	op.a, op.addr, op.coreID, op.sp, op.done = a, addr, coreID, sp, done
	op.refs, op.launchPar, op.bearHit = 0, false, false
	op.mmArrived, op.tadMiss, op.resolved, op.mmT = false, false, false, 0
	return op
}

func (op *alloyOp) deref() {
	op.refs--
	if op.refs == 0 {
		op.sp, op.done = nil, nil
		op.a.freeOps = append(op.a.freeOps, op)
	}
}

// finishMiss resolves a read miss exactly once (the parallel TAD probe and
// main-memory access can both reach it).
func (op *alloyOp) finishMiss(t mem.Cycle) {
	if op.resolved {
		return
	}
	op.resolved = true
	op.a.fill(op.addr, op.coreID, false, true)
	op.done(t)
}

// mmDone joins the parallel-launched main-memory completion.
func (op *alloyOp) mmDone(t mem.Cycle) {
	op.mmArrived, op.mmT = true, t
	if op.tadMiss {
		op.finishMiss(t)
	}
	op.deref()
}

// tadDone resolves the TAD probe: a hit serves from the array (any
// parallel main-memory response is dropped); a miss joins with — or, when
// no parallel access was launched, starts — the main-memory read.
func (op *alloyOp) tadDone(t mem.Cycle) {
	a := op.a
	set, hit := a.tags.lookup(op.addr)
	a.trainPred(op.addr, op.coreID, hit)
	if hit {
		a.st.ReadHits++
		a.tags.markReused(set)
		op.sp.Decide(stats.BDTechNone)
		op.sp.Serve(stats.BDSrcCache)
		done := op.done
		op.deref()
		done(t) // the TAD carries the data; a parallel MM response is dropped
		return
	}
	a.st.ReadMisses++
	a.wc.AMM++
	a.wc.Rm++
	op.tadMiss = true
	op.sp.Decide(stats.BDTechNone)
	if op.launchPar {
		if op.mmArrived {
			tt := t
			if op.mmT > tt {
				tt = op.mmT
			}
			op.finishMiss(tt)
		}
		op.deref()
		return
	}
	op.sp.Serve(stats.BDSrcMain)
	// the TAD reference transfers to the main-memory completion (finCB)
	a.mm.AccessTraced(op.addr, mem.ReadKind, obs.OnIssue(op.sp), op.finCB)
}

// fin completes the serial (non-parallel) miss path.
func (op *alloyOp) fin(t mem.Cycle) {
	op.finishMiss(t)
	op.deref()
}

// bear completes the BEAR miss-probe-avoidance path.
func (op *alloyOp) bear(t mem.Cycle) {
	a, addr, coreID, hit, done := op.a, op.addr, op.coreID, op.bearHit, op.done
	op.deref()
	if !hit {
		a.fill(addr, coreID, false, false)
	}
	done(t)
}

// wbTadDone completes the baseline (non-BEAR) writeback's presence-
// establishing TAD fetch.
func (op *alloyOp) wbTadDone(mem.Cycle) {
	a, addr, coreID := op.a, op.addr, op.coreID
	op.deref()
	a.applyWriteback(addr, coreID, true)
}

// alloyIFRM resumes a DAP forced miss after the DBC lookup latency.
func alloyIFRM(ctx any, _ uint64, _ mem.Cycle) {
	op := ctx.(*alloyOp)
	a, addr, sp, done := op.a, op.addr, op.sp, op.done
	op.deref()
	sp.Decide(stats.BDTechIFRM)
	sp.Serve(stats.BDSrcMain)
	a.mm.AccessTraced(addr, mem.ReadKind, obs.OnIssue(sp), done)
}

// NewAlloy builds the controller. mm is the shared main-memory device.
func NewAlloy(cfg AlloyConfig, eng *sim.Engine, mm *dram.Device, part core.Partitioner) *Alloy {
	a := &Alloy{cfg: cfg, eng: eng, mm: mm, part: part}
	a.fwd.mm = mm
	a.dev = dram.NewDevice(cfg.Array, eng)
	a.tags = newDMTags(cfg.CapacityBytes / mem.LineBytes)
	a.dbc = newDBC(cfg.DBCEntries, cfg.DBCWays)
	a.pred = make([]uint8, 4096)
	a.fillPred = make([]uint8, 4096)
	for i := range a.pred {
		a.pred[i] = 2 // weakly predict hit
	}
	for i := range a.fillPred {
		a.fillPred[i] = 3 // fills start strongly useful; dead fills train it down
	}
	return a
}

// Windows exposes the window counters for the partitioner.
func (a *Alloy) Windows() *core.WindowCounts { return &a.wc }

// MSStats implements Controller.
func (a *Alloy) MSStats() *stats.MemSideStats { return &a.st }

// CacheCAS implements Controller.
func (a *Alloy) CacheCAS() uint64 { st := a.dev.Stats(); return st.CAS() }

// Device exposes the cache array.
func (a *Alloy) Device() *dram.Device { return a.dev }

// ResetStats implements Controller.
func (a *Alloy) ResetStats() {
	a.st = stats.MemSideStats{}
	a.dev.ResetStats()
}

func predIdx(addr mem.Addr, coreID int) int {
	h := uint64(addr>>12)*0x9e3779b97f4a7c15 + uint64(coreID)*0xbf58476d1ce4e5b9
	return int((h >> 40) % 4096)
}

func (a *Alloy) predictHit(addr mem.Addr, coreID int) bool {
	return a.pred[predIdx(addr, coreID)] >= 2
}

func (a *Alloy) trainPred(addr mem.Addr, coreID int, hit bool) {
	i := predIdx(addr, coreID)
	if hit {
		if a.pred[i] < 3 {
			a.pred[i]++
		}
	} else if a.pred[i] > 0 {
		a.pred[i]--
	}
}

// setOf returns the direct-mapped set of an address plus its DBC group and
// in-group bit.
func (a *Alloy) setOf(addr mem.Addr) (set int, group uint64, bit uint64) {
	set, _ = a.tags.index(addr)
	group, bit = dbcSlot(set)
	return set, group, bit
}

// dbcSlot returns the DBC group of a set and the set's bit in it.
func dbcSlot(set int) (group, bit uint64) { return uint64(set) / 64, 1 << (uint64(set) % 64) }

// tad enqueues a TAD-sized array access.
func (a *Alloy) tad(addr mem.Addr, kind mem.Kind, done func(mem.Cycle)) {
	a.dev.AccessBurst(addr, kind, a.cfg.TADBurst, done)
}

// dbcBitsFromTags rebuilds a DBC entry from the tag array (models a
// TAD-sourced refill of the dirty-bit cache). Word g of the dirty bitmap
// holds exactly the group's 64 sets.
func (a *Alloy) dbcBitsFromTags(group uint64) uint64 {
	return a.tags.dirty[group]
}

// Read implements cpu.Backend.
func (a *Alloy) Read(addr mem.Addr, coreID int, kind mem.Kind, done func(mem.Cycle)) {
	addr = addr.LineAligned()
	if done == nil {
		done = func(mem.Cycle) {}
	}
	sp := a.tr.Read(coreID, addr, kind)
	done = sp.Wrap(done)
	_, group, bit := a.setOf(addr)

	dbcClean := false
	if e := a.dbc.lookup(group); e >= 0 && a.dbc.bits[e]&bit == 0 {
		dbcClean = true
		a.wc.CleanHits++ // IFRM candidate
	}

	// DAP forced miss: a DBC-known-clean set can be served from main
	// memory, skipping the TAD fetch; the fill is implicitly skipped too.
	if dbcClean && a.part.TakeIFRM(coreID) {
		a.wc.AMSR++ // the TAD read this access would have demanded
		a.st.ForcedMisses++
		if _, hit := a.tags.lookup(addr); hit {
			a.st.ReadHits++
		} else {
			a.st.ReadMisses++
			a.wc.AMM++
			a.wc.Rm++
		}
		op := a.getOp(addr, coreID, sp, done)
		op.refs = 1
		a.eng.AfterArg(a.cfg.DBCLat, alloyIFRM, op, 0)
		return
	}

	predictedHit := a.predictHit(addr, coreID)

	// BEAR miss-probe avoidance: a predicted miss on a known-clean set can
	// skip the TAD probe (clean or absent lines are consistent with main
	// memory, so the main-memory copy is always safe to use).
	if a.cfg.BEAR && !predictedHit && dbcClean {
		_, hit := a.tags.lookup(addr)
		a.trainPred(addr, coreID, hit)
		if hit {
			a.st.ReadHits++
		} else {
			a.st.ReadMisses++
			a.wc.Rm++
		}
		a.wc.AMM++
		sp.Decide(stats.BDTechNone)
		sp.Serve(stats.BDSrcMain)
		op := a.getOp(addr, coreID, sp, done)
		op.refs, op.bearHit = 1, hit
		a.mm.AccessTraced(addr, mem.ReadKind, obs.OnIssue(sp), op.bearCB)
		return
	}

	// Parallel miss handling: on a predicted miss, start the main-memory
	// access alongside the TAD probe and join the two completions on one
	// reference-counted op.
	op := a.getOp(addr, coreID, sp, done)
	op.launchPar = !predictedHit
	op.refs = 1
	if op.launchPar {
		op.refs = 2
		// Speculative serve mark: on a TAD hit the span is re-marked with
		// the true source in tadDone.
		sp.Serve(stats.BDSrcMain)
		a.mm.AccessTraced(addr, mem.ReadKind, obs.OnIssue(sp), op.mmCB)
	}

	a.wc.AMSR++
	sp.Meta()
	a.tad(addr, mem.MetaReadKind, op.tadCB)
}

// fill installs a returned line. probed reports whether a TAD read of the
// victim's location already happened (its data is then in hand; otherwise a
// dirty victim costs an extra TAD read before the main-memory write). A
// dirty fill carries a write miss's data, so neither DAP's fill bypass,
// which covers read-miss fills only, nor BEAR's may drop it.
func (a *Alloy) fill(addr mem.Addr, coreID int, dirty, probed bool) {
	a.wc.AMSW++
	if !dirty && a.part.TakeFWB() {
		a.st.FillBypasses++
		return
	}
	if a.cfg.BEAR && !dirty && a.fillPred[predIdx(addr, coreID)] < 2 {
		a.st.FillBypasses++
		return
	}
	a.st.Fills++
	_, group, bit := a.setOf(addr)
	ev := a.tags.install(addr, dirty)
	if ev.valid {
		// train the fill predictor on the victim's observed reuse
		i := predIdx(addr, coreID)
		if ev.reused {
			if a.fillPred[i] < 3 {
				a.fillPred[i]++
			}
		} else if a.fillPred[i] > 0 {
			a.fillPred[i]--
		}
		if ev.dirty {
			a.st.DirtyWriteouts++
			a.wc.AMM++
			if probed {
				// the probe already moved the victim's TAD
				a.mm.Access(ev.addr, mem.WritebackKind, nil)
			} else {
				a.st.VictimReads++
				a.wc.AMSR++
				a.tad(ev.addr, mem.VictimRdKind, a.fwd.forward(ev.addr))
			}
		}
	}
	a.tad(addr, mem.FillKind, nil)
	e := a.dbc.lookup(group)
	if e < 0 {
		e = a.dbc.install(group, a.dbcBitsFromTags(group))
	}
	if dirty {
		a.dbc.bits[e] |= bit
	} else {
		a.dbc.bits[e] &^= bit
	}
}

// Writeback implements cpu.Backend.
func (a *Alloy) Writeback(addr mem.Addr, coreID int) {
	addr = addr.LineAligned()
	a.wc.Wm++

	if a.cfg.BEAR {
		// the L3 presence bit obviates the TAD fetch before a write
		a.applyWriteback(addr, coreID, false)
		return
	}
	// baseline Alloy: a TAD fetch must establish presence first
	a.wc.AMSR++
	a.st.MetaReads++
	op := a.getOp(addr, coreID, nil, nil)
	op.refs = 1
	a.tad(addr, mem.MetaReadKind, op.wbCB)
}

// applyWriteback lands a writeback once presence is established (directly
// under BEAR; after the TAD fetch otherwise).
func (a *Alloy) applyWriteback(addr mem.Addr, coreID int, probed bool) {
	set, hit := a.tags.lookup(addr)
	if !hit {
		a.st.WriteMisses++
		a.fill(addr, coreID, true, probed)
		return
	}
	group, bit := dbcSlot(set)
	a.st.WriteHits++
	a.wc.AMSW++
	// DAP write-through: spend residual main-memory bandwidth keeping
	// blocks clean so forced misses stay applicable.
	wt := a.part.TakeWT()
	a.tags.setDirty(set, !wt)
	a.tags.markReused(set)
	a.tad(addr, mem.WritebackKind, nil)
	if wt {
		a.mm.Access(addr, mem.WritebackKind, nil)
	}
	e := a.dbc.lookup(group)
	if e < 0 {
		e = a.dbc.install(group, a.dbcBitsFromTags(group))
	}
	if wt {
		a.dbc.bits[e] &^= bit
	} else {
		a.dbc.bits[e] |= bit
	}
}

// WarmRead implements cpu.Backend's functional path.
func (a *Alloy) WarmRead(addr mem.Addr, coreID int) {
	addr = addr.LineAligned()
	if set, hit := a.tags.lookup(addr); hit {
		a.tags.markReused(set)
		return
	}
	a.tags.install(addr, false)
}

// WarmWriteback implements cpu.Backend's functional path.
func (a *Alloy) WarmWriteback(addr mem.Addr, coreID int) {
	addr = addr.LineAligned()
	set, hit := a.tags.lookup(addr)
	if hit {
		a.tags.setDirty(set, true)
	} else {
		a.tags.install(addr, true)
	}
	group, bit := dbcSlot(set)
	if e := a.dbc.lookup(group); e >= 0 {
		a.dbc.bits[e] |= bit
	} else {
		a.dbc.install(group, a.dbcBitsFromTags(group))
	}
}

// SetPartitioner replaces the partitioning policy (used after construction
// once the DAP instance has been wired to this controller's counters).
func (a *Alloy) SetPartitioner(p core.Partitioner) { a.part = p }

// SetTracer attaches a request-lifecycle tracer (nil disables tracing; all
// hooks are nil-safe no-ops).
func (a *Alloy) SetTracer(t *obs.Tracer) { a.tr = t }
