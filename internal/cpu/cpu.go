package cpu

import (
	"fmt"
	"strings"

	"dap/internal/mem"
	"dap/internal/sim"
	"dap/internal/stats"
	"dap/internal/workload"
)

// CPU is the processor complex: cores, private L1/L2, shared inclusive L3.
type CPU struct {
	cfg     Config
	eng     *sim.Engine
	backend Backend
	l3      *sram
	cores   []*core

	startAt   mem.Cycle
	remaining int

	blocks []warmBlock // Warm's pipeline blocks
	batch  []warmOp    // the backend calls of the block Warm is walking
}

// New builds the processor complex. Streams are attached with SetStreams.
func New(cfg Config, eng *sim.Engine, backend Backend) *CPU {
	c := &CPU{cfg: cfg, eng: eng, backend: backend}
	c.l3 = newSRAM(cfg.L3Bytes, cfg.L3Ways)
	for i := 0; i < cfg.Cores; i++ {
		co := &core{
			cpu: c, id: i,
			l1: newSRAM(cfg.L1Bytes, cfg.L1Ways),
			l2: newSRAM(cfg.L2Bytes, cfg.L2Ways),
			pf: newStridePrefetcher(cfg.PFStreams, cfg.PFDegree, cfg.PFDistance),
			// Pre-size the miss-tracking structures for their steady-state
			// population (bounded by the ROB plus prefetch depth), so a
			// fresh core's warm-up does not grow them one doubling at a
			// time.
			mshr:     make(map[mem.Addr]*missEntry, cfg.ROB),
			inflight: make([]uint64, 0, cfg.ROB+1),
		}
		c.cores = append(c.cores, co)
	}
	return c
}

// SetStreams attaches one workload stream per core.
func (c *CPU) SetStreams(streams []workload.Stream) {
	if len(streams) != len(c.cores) {
		panic("cpu: stream count must equal core count")
	}
	for i, s := range streams {
		c.cores[i].stream = s
		c.cores[i].loadFirst()
	}
}

// Start begins timed execution: every core runs until it has fetched target
// instructions; cores that finish early keep running (as in the paper).
func (c *CPU) Start(target uint64) {
	c.startAt = c.eng.Now()
	c.remaining = len(c.cores)
	for _, co := range c.cores {
		co.target = target
		co.fetched = 0
		co.fetchedAt = c.eng.Now()
		co.pendPos = uint64(co.pend.Gap)
		co.finished = false
		co.st = stats.CoreStats{}
		co.advance()
	}
}

// Done reports whether every core reached its target.
func (c *CPU) Done() bool { return c.remaining == 0 }

// ProgressFingerprint returns a value that changes whenever the slowest
// unfinished core fetches an instruction — the forward-progress signal the
// engine watchdog samples. Tracking the minimum over unfinished cores (not
// the total) catches a single wedged core even while its neighbours keep
// retiring. Returns ^0 once every core has finished.
func (c *CPU) ProgressFingerprint() uint64 {
	min := ^uint64(0)
	for _, co := range c.cores {
		if !co.finished && co.fetched < min {
			min = co.fetched
		}
	}
	return min
}

// Snapshot formats per-core progress and queue state for stall diagnostics:
// fetched/target instructions, in-flight loads, outstanding MSHR fills and
// prefetches, and whether issue is blocked on a dependent load.
func (c *CPU) Snapshot() string {
	var b strings.Builder
	for _, co := range c.cores {
		fmt.Fprintf(&b, "  core %2d: fetched %d/%d, inflight %d, mshr %d, pfOut %d",
			co.id, co.fetched, co.target, len(co.inflight), len(co.mshr), co.pfOut)
		if co.waitDep {
			b.WriteString(", blocked on dependent load")
		}
		if co.finished {
			b.WriteString(", finished")
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// AuditInvariants checks the structural invariants of the core model: the
// in-flight load window never exceeds the ROB, fetch never passes the
// pending access, and the prefetch buffer accounting stays in bounds. It
// returns a description of the first violation, or nil.
func (c *CPU) AuditInvariants() error {
	for _, co := range c.cores {
		if len(co.inflight) > c.cfg.ROB+1 {
			return fmt.Errorf("core %d: %d in-flight loads exceed the %d-entry ROB", co.id, len(co.inflight), c.cfg.ROB)
		}
		if co.fetched > co.pendPos+1 {
			return fmt.Errorf("core %d: fetched %d passed the pending access at %d", co.id, co.fetched, co.pendPos)
		}
		if co.pfOut < 0 || co.pfOut > c.cfg.PFOutstanding {
			return fmt.Errorf("core %d: outstanding prefetches %d out of [0, %d]", co.id, co.pfOut, c.cfg.PFOutstanding)
		}
	}
	return nil
}

// CoreStats returns a copy of the per-core statistics.
func (c *CPU) CoreStats() []stats.CoreStats {
	out := make([]stats.CoreStats, len(c.cores))
	for i, co := range c.cores {
		out[i] = co.st
		if !co.finished {
			out[i].Instructions = co.fetched
			out[i].Cycles = c.eng.Now() - c.startAt
		}
	}
	return out
}

const noLimit = ^uint64(0)

// core implements the ROB-occupancy model described in the package comment.
type core struct {
	cpu    *CPU
	id     int
	stream workload.Stream
	l1, l2 *sram
	pf     *stridePrefetcher

	pend    workload.Access
	pendPos uint64 // absolute instruction index of pend

	fetched   uint64
	fetchedAt mem.Cycle
	inflight  []uint64 // program-order positions of incomplete loads
	depOut    bool     // a dependent (chase) load is outstanding
	waitDep   bool     // issue stalled on the outstanding dependent load
	wakeSet   bool     // a rate-limit wake event is scheduled

	target   uint64
	finished bool

	lastIssue   mem.Cycle
	issuedCycle int // accesses issued in the current cycle

	st    stats.CoreStats
	pfBuf []mem.Addr
	pfOut int // outstanding prefetch fills
	// mshr merges outstanding misses per line: secondary misses (demand or
	// prefetch) attach to the primary instead of issuing duplicate reads.
	mshr map[mem.Addr]*missEntry

	// freeMiss and freeFill recycle the per-miss records (missEntry, and
	// the fillOp continuation handed to the backend), so the steady-state
	// miss path allocates nothing. Per-core LIFO free lists: each core
	// lives on one engine goroutine, so recycling order is deterministic.
	freeMiss []*missEntry
	freeFill []*fillOp
}

// missEntry tracks one outstanding line fill and its merged waiters.
type missEntry struct {
	waiters []missWaiter
	store   bool // some waiter stores (line installs dirty)
}

// missWaiter is a load blocked on an outstanding fill.
type missWaiter struct {
	pos       uint64
	dependent bool
	issued    mem.Cycle
}

// fillOp is the pooled continuation for one backend read: cb is the method
// value bound to complete, allocated once when the record is first created
// and reused for every subsequent fill, so handing the backend a
// func(mem.Cycle) costs no allocation in steady state.
type fillOp struct {
	co   *core
	addr mem.Addr
	pf   bool // a prefetch fill (decrements pfOut on completion)
	cb   func(mem.Cycle)
}

// complete releases the record before dispatching: the fields are copied to
// locals, so the op can be reused by any read issued downstream of
// fillArrived (load completion → advance → execute → new miss).
func (f *fillOp) complete(t mem.Cycle) {
	co, addr, pf := f.co, f.addr, f.pf
	co.freeFill = append(co.freeFill, f)
	if pf {
		co.pfOut--
	}
	co.fillArrived(addr, t)
}

// missChunk is how many pooled miss records (missEntry, fillOp) an empty
// free list allocates at once: one block per chunk instead of one object
// per outstanding miss while a fresh core ramps to its steady-state depth.
const missChunk = 32

func (co *core) getFill(addr mem.Addr, pf bool) *fillOp {
	var f *fillOp
	if n := len(co.freeFill); n > 0 {
		f = co.freeFill[n-1]
		co.freeFill = co.freeFill[:n-1]
	} else {
		blk := make([]fillOp, missChunk)
		for i := missChunk - 1; i >= 1; i-- {
			co.freeFill = append(co.freeFill, &blk[i])
		}
		f = &blk[0]
	}
	if f.cb == nil {
		f.cb = f.complete // bound once per record, on its first use
	}
	f.co, f.addr, f.pf = co, addr, pf
	return f
}

func (co *core) getMiss() *missEntry {
	n := len(co.freeMiss)
	if n == 0 {
		blk := make([]missEntry, missChunk)
		for i := missChunk - 1; i >= 1; i-- {
			co.freeMiss = append(co.freeMiss, &blk[i])
		}
		return &blk[0]
	}
	e := co.freeMiss[n-1]
	co.freeMiss = co.freeMiss[:n-1]
	return e // reset on put; waiters keeps its capacity
}

func (co *core) putMiss(e *missEntry) {
	e.waiters = e.waiters[:0]
	e.store = false
	co.freeMiss = append(co.freeMiss, e)
}

// coreWake resumes a rate-limited core (the typed, allocation-free form of
// the wake closure advance used to capture).
func coreWake(ctx any, _ uint64, _ mem.Cycle) {
	co := ctx.(*core)
	co.wakeSet = false
	co.advance()
}

// coreCompleteLoad completes the load encoded in v: bit 0 is the dependent
// flag, the rest is the program-order position (see packLoad).
func coreCompleteLoad(ctx any, v uint64, _ mem.Cycle) {
	ctx.(*core).completeLoad(v>>1, v&1 != 0)
}

// packLoad encodes a load's identity into the AtArg payload word.
func packLoad(pos uint64, dependent bool) uint64 {
	v := pos << 1
	if dependent {
		v |= 1
	}
	return v
}

func (co *core) loadFirst() {
	co.pend = co.stream.Next()
	co.pendPos = uint64(co.pend.Gap)
}

func (co *core) loadNext() {
	a := co.stream.Next()
	co.pendPos += 1 + uint64(a.Gap)
	co.pend = a
}

func (co *core) windowLimit() uint64 {
	if len(co.inflight) == 0 {
		return noLimit
	}
	return co.inflight[0] + uint64(co.cpu.cfg.ROB)
}

// catchUp advances the fetch counter linearly to now, bounded by the pending
// access position and the ROB window. Between events the window limit is
// constant, so the linear model is exact.
func (co *core) catchUp() {
	now := co.cpu.eng.Now()
	elapsed := uint64(now - co.fetchedAt)
	can := co.fetched + elapsed*uint64(co.cpu.cfg.Width)
	if can < co.fetched { // overflow guard
		can = noLimit
	}
	tgt := co.pendPos
	if l := co.windowLimit(); l < tgt {
		tgt = l
	}
	if can > tgt {
		can = tgt
	}
	if can > co.fetched {
		co.fetched = can
	}
	co.fetchedAt = now
	co.checkFinished()
}

func (co *core) checkFinished() {
	if !co.finished && co.fetched >= co.target && co.target > 0 {
		co.finished = true
		co.st.Instructions = co.target
		co.st.Cycles = co.cpu.eng.Now() - co.cpu.startAt
		co.cpu.remaining--
	}
}

// advance is the core's event handler: fetch toward the next access, issue
// it when reached, repeat; otherwise arrange to be woken.
func (co *core) advance() {
	eng := co.cpu.eng
	for {
		co.catchUp()
		if co.fetched < co.pendPos {
			limit := co.windowLimit()
			if co.fetched >= limit {
				return // window full: a load completion will re-advance
			}
			tgt := co.pendPos
			if limit < tgt {
				tgt = limit
			}
			w := uint64(co.cpu.cfg.Width)
			dt := (tgt - co.fetched + w - 1) / w
			if !co.wakeSet {
				co.wakeSet = true
				eng.AfterArg(mem.Cycle(dt), coreWake, co, 0)
			}
			return
		}
		// the pending access is fetchable now; it must also fit in the
		// ROB window (its slot is pendPos, bounded by oldest+ROB)
		if co.pendPos >= co.windowLimit() {
			return // window full: a load completion will re-advance
		}
		if co.pend.Dependent && co.depOut {
			co.waitDep = true
			return
		}
		// cap memory issue rate at the pipeline width per cycle
		if now := eng.Now(); now != co.lastIssue {
			co.lastIssue, co.issuedCycle = now, 0
		} else if co.issuedCycle >= co.cpu.cfg.Width {
			if !co.wakeSet {
				co.wakeSet = true
				eng.AfterArg(1, coreWake, co, 0)
			}
			return
		}
		co.issuedCycle++
		a := co.pend
		pos := co.pendPos
		co.fetched = pos + 1 // the access instruction itself retires
		co.loadNext()
		co.execute(a, pos)
		co.checkFinished()
	}
}

// completeLoad removes a finished load from the window and resumes fetch.
func (co *core) completeLoad(pos uint64, dependent bool) {
	co.catchUp() // account progress under the old window limit first
	for i, p := range co.inflight {
		if p == pos {
			co.inflight = append(co.inflight[:i], co.inflight[i+1:]...)
			break
		}
	}
	if dependent {
		co.depOut = false
		co.waitDep = false
	}
	co.advance()
}

// execute performs one memory access against the hierarchy.
func (co *core) execute(a workload.Access, pos uint64) {
	cpu := co.cpu
	eng := cpu.eng
	addr := a.Addr

	if co.l1.lookup(addr, a.Store) {
		return // L1 hits are free in this model
	}

	// train the prefetcher on the L1 miss stream. pfBuf is handed straight
	// to issuePrefetches below — nothing between observe and that call
	// reenters the core (backend reads only enqueue; completions fire from
	// the engine loop), so no defensive copy is needed.
	co.pfBuf = co.pf.observe(addr, co.pfBuf[:0])

	isLoad := !a.Store

	// a miss above leaves the line absent from the levels it missed, so
	// the installs below need no probe
	switch {
	case co.l2.lookup(addr, false):
		co.installL1(addr, a.Store)
		co.trackLoad(isLoad, a.Dependent, pos, cpu.cfg.L2Lat)
	case cpu.l3.lookup(addr, false):
		co.installL2(addr, false)
		co.installL1(addr, a.Store)
		co.trackLoad(isLoad, a.Dependent, pos, cpu.cfg.L3Lat)
	default:
		issued := eng.Now()
		if isLoad {
			co.st.L3ReadMisses++
			co.inflight = append(co.inflight, pos)
			if a.Dependent {
				co.depOut = true
			}
		}
		if e, pending := co.mshr[addr]; pending {
			// secondary miss: merge into the outstanding fill
			e.store = e.store || a.Store
			if isLoad {
				e.waiters = append(e.waiters, missWaiter{pos: pos, dependent: a.Dependent, issued: issued})
			}
			break
		}
		co.st.L3Misses++
		e := co.getMiss()
		e.store = a.Store
		if isLoad {
			e.waiters = append(e.waiters, missWaiter{pos: pos, dependent: a.Dependent, issued: issued})
		}
		co.mshr[addr] = e
		cpu.backend.Read(addr, co.id, mem.ReadKind, co.getFill(addr, false).cb)
	}
	co.issuePrefetches(co.pfBuf)
}

// trackLoad records an in-window load serviced by a private cache level and
// schedules its completion lat cycles out.
func (co *core) trackLoad(isLoad, dependent bool, pos uint64, lat mem.Cycle) {
	if !isLoad {
		return
	}
	co.inflight = append(co.inflight, pos)
	if dependent {
		co.depOut = true
	}
	co.cpu.eng.AfterArg(lat, coreCompleteLoad, co, packLoad(pos, dependent))
}

// fillArrived completes an outstanding miss: install the line and release
// every merged waiter.
func (co *core) fillArrived(addr mem.Addr, t mem.Cycle) {
	cpu := co.cpu
	e := co.mshr[addr]
	delete(co.mshr, addr)
	co.fillFromMemory(addr, e != nil && e.store)
	if e == nil {
		return
	}
	for _, w := range e.waiters {
		co.st.L3ReadMissLatSum += t - w.issued + cpu.cfg.L3Lat
		co.st.L3MissLat.Add(uint64(t - w.issued + cpu.cfg.L3Lat))
		cpu.eng.AfterArg(cpu.cfg.L3Lat, coreCompleteLoad, co, packLoad(w.pos, w.dependent))
	}
	co.putMiss(e)
}

// fillFromMemory installs a returned line into L3, L2 and L1. Unlike
// execute's installs it runs in a later event than the lookups that
// missed, so it probes each level first.
func (co *core) fillFromMemory(addr mem.Addr, store bool) {
	if !co.cpu.l3.probe(addr, false) {
		co.installL3(addr, false)
	}
	if !co.l2.probe(addr, false) {
		co.installL2(addr, false)
	}
	if !co.l1.probe(addr, store) {
		co.installL1(addr, store)
	}
}

func (co *core) issuePrefetches(cands []mem.Addr) {
	cpu := co.cpu
	max := cpu.cfg.PFOutstanding
	for _, p := range cands {
		if co.pfOut >= max {
			return
		}
		if co.l2.probe(p, false) || cpu.l3.probe(p, false) {
			continue
		}
		if _, dup := co.mshr[p]; dup {
			continue
		}
		co.mshr[p] = co.getMiss()
		co.pfOut++
		cpu.backend.Read(p, co.id, mem.PrefetchKind, co.getFill(p, true).cb)
	}
}

// installL1 inserts a line absent from L1; a dirty victim marks its L2
// copy, which L1 ⊆ L2 guarantees is present (TestHierarchyInclusive), so
// nothing below the L2 ever sees an L1 eviction.
func (co *core) installL1(addr mem.Addr, dirty bool) {
	if va, ok, d := co.l1.insert(addr, dirty); ok && d {
		co.l2.probe(va, true)
	}
}

// installL2 inserts a line absent from L2; victims invalidate L1 and dirty
// data settles in the (inclusive) L3 copy.
func (co *core) installL2(addr mem.Addr, warm bool) {
	va, ok, d := co.l2.insert(addr, false)
	if !ok {
		return
	}
	if _, l1Dirty := co.l1.invalidate(va); l1Dirty {
		d = true
	}
	if d && !co.cpu.l3.probe(va, true) {
		co.cpu.writeback(va, co.id, warm)
	}
}

// installL3 inserts a line absent from the shared L3; victims
// back-invalidate the owning core's private caches and dirty lines are
// written back below. L1 ⊆ L2 on every core (each L1 install follows an
// L2 hit or install of its line, and each L2 eviction and this
// back-invalidation remove the L1 copy), so the owner's L1 can hold the
// victim only if its L2 did.
func (co *core) installL3(addr mem.Addr, warm bool) {
	cpu := co.cpu
	va, ok, dirty := cpu.l3.insert(addr, false)
	if !ok {
		return
	}
	if owner := ownerOf(va); owner >= 0 && owner < len(cpu.cores) {
		oc := cpu.cores[owner]
		if inL2, l2Dirty := oc.l2.invalidate(va); inL2 {
			_, l1Dirty := oc.l1.invalidate(va)
			dirty = dirty || l2Dirty || l1Dirty
		}
	}
	if dirty {
		cpu.writeback(va, co.id, warm)
	}
}

// writeback sends a dirty line below the L3: during warmup into the batch
// the memory-side replay makes functionally, as timed traffic otherwise.
// During warmup core is the walked core, which the replay recovers from
// the block's chunk ends.
func (c *CPU) writeback(a mem.Addr, core int, warm bool) {
	if warm {
		c.batch = append(c.batch, warmOp(a)|warmWB)
	} else {
		c.backend.Writeback(a, core)
	}
}

// ownerOf maps a core-private address back to its core index.
func ownerOf(a mem.Addr) int { return int(a/workload.CoreSpacing) - 1 }

// warmExecute is the functional (timing-free) twin of execute. Its backend
// calls go into the batch the memory-side replay stage makes (warm.go).
func (co *core) warmExecute(a workload.Access) {
	addr := a.Addr
	if co.l1.lookup(addr, a.Store) {
		return
	}
	co.pfBuf = co.pf.observe(addr, co.pfBuf[:0]) // keep the prefetcher trained
	if co.l2.lookup(addr, false) {
		co.installL1(addr, a.Store)
		return
	}
	if co.cpu.l3.lookup(addr, false) {
		co.installL2(addr, true)
		co.installL1(addr, a.Store)
		return
	}
	co.cpu.batch = append(co.cpu.batch, warmOp(addr))
	co.installL3(addr, true)
	co.installL2(addr, true)
	co.installL1(addr, a.Store)
}
