package core

import (
	"fmt"

	"dap/internal/check"
	"dap/internal/mem"
	"dap/internal/sim"
	"dap/internal/stats"
)

// WindowCounts is the demand profile a memory-side cache controller collects
// during one observation window. The controller increments these as traffic
// arrives; the partitioner consumes and resets them at window boundaries.
//
// AMSR/AMSW split memory-side cache demand into its read and write
// components (needed by the eDRAM variant, which has independent read and
// write channels); single-channel architectures use the sum. AMM counts
// baseline main-memory accesses only (read misses and dirty write-outs of
// the memory-side cache) — traffic added by WB/IFRM/SFRM redirection is
// accounted analytically by the equations, not double-counted here.
type WindowCounts struct {
	AMSR      int64 // reads demanded of the memory-side cache (incl. metadata reads, victim reads)
	AMSW      int64 // writes demanded of the memory-side cache (fills, writebacks, metadata updates)
	AMM       int64 // baseline main-memory accesses (read misses + dirty write-outs)
	Rm        int64 // read-miss fills intended (demand misses + footprint fetches)
	Wm        int64 // writes to the memory-side cache (dirty L3 evictions)
	CleanHits int64 // clean read hits observed (IFRM candidates)
}

// AMS is the total memory-side cache demand.
func (w *WindowCounts) AMS() int64 { return w.AMSR + w.AMSW }

func (w *WindowCounts) reset() { *w = WindowCounts{} }

// Partitioner is the decision interface consulted by memory-side cache
// controllers at each technique's application point. Each Take* consumes one
// credit when available. The baseline partitioner never partitions.
type Partitioner interface {
	// TakeFWB reports whether the next read-miss fill should be dropped.
	TakeFWB() bool
	// TakeWB reports whether the next dirty L3 eviction should be steered
	// to main memory.
	TakeWB() bool
	// TakeIFRM reports whether the next clean read hit (issued by the
	// given core; -1 when unattributed) should be served from main memory.
	TakeIFRM(core int) bool
	// TakeSFRM reports whether a read with unknown hit/miss status takes
	// an SFRM credit. The sectored controller, its only caller, spends the
	// credit at the metadata fetch and issues no main-memory read with it:
	// a clean hit's main-memory read is issued only once the metadata
	// returns. The paper launches that read in parallel with the fetch;
	// doing so is the open fix of ROADMAP.md item 16.
	TakeSFRM() bool
	// TakeWT reports whether a write should additionally be written
	// through to main memory (Alloy-cache variant: keeps blocks clean so
	// IFRM stays applicable).
	TakeWT() bool
	// Decisions returns the technique application counts (Figure 7).
	Decisions() stats.DAPDecisions
}

// Nop is the baseline partitioner: it never partitions.
type Nop struct{}

func (Nop) TakeFWB() bool                 { return false }
func (Nop) TakeWB() bool                  { return false }
func (Nop) TakeIFRM(int) bool             { return false }
func (Nop) TakeSFRM() bool                { return false }
func (Nop) TakeWT() bool                  { return false }
func (Nop) Decisions() stats.DAPDecisions { return stats.DAPDecisions{} }

// Arch selects the architecture-specific credit computation.
type Arch uint8

// Architectures supported by DAP (Section IV-A/B/C).
const (
	SectoredArch Arch = iota // die-stacked sectored DRAM cache (single channel set)
	AlloyArch                // Alloy cache (single channel set, TAD bloat)
	EDRAMArch                // sectored eDRAM cache (separate read/write channels)
)

// Config parameterizes DAP.
type Config struct {
	Arch Arch

	// BMSGBps is the peak bandwidth of the memory-side cache in GB/s. For
	// the eDRAM architecture this is the bandwidth of EACH of the read and
	// write channel sets. For the Alloy cache pass the effective data
	// bandwidth (2/3 of peak: a TAD burst moves 96 B to deliver 64 B).
	BMSGBps float64
	// BMMGBps is the peak main-memory bandwidth in GB/s.
	BMMGBps float64

	// Window is the observation window W in CPU cycles (paper default 64).
	Window mem.Cycle
	// Efficiency is the assumed fraction of peak deliverable by every
	// source (paper default 0.75).
	Efficiency float64

	// MaxKDen bounds the denominator of the hardware rational
	// approximation of K (paper default 4, giving 11/4 for 8/3).
	MaxKDen int64
	// CreditCap is the saturation value of each raw credit counter
	// (paper: eight-bit counters, 255).
	CreditCap int64
	// SFRMReserve is the fraction of spare main-memory bandwidth granted
	// to SFRM / write-through (paper default 0.8, keeping 20% for
	// bandwidth emergencies).
	SFRMReserve float64

	// Disable selectively turns techniques off (Figure 8 evaluates a
	// FWB+WB-only configuration; the abl-techniques table uses the rest).
	Disable struct{ FWB, WB, IFRM, SFRM bool }

	// Backlog, when non-nil, reports the requests still queued at the
	// memory-side cache's read and write channels and at main memory. The
	// paper's A_MS$/A_MM are the accesses that *need* to be served — under
	// saturation that is new arrivals plus the backlog, not arrivals alone
	// (which self-limit to the service rate in a closed-loop system).
	Backlog func() (msRead, msWrite, mm int64)

	// EWMALearning smooths the window counts exponentially (half-life one
	// window) instead of using each window's raw counts — the learning
	// ablation discussed in DESIGN.md. The paper uses raw windows.
	EWMALearning bool

	// ThreadAware enables the thread-aware IFRM variant sketched in
	// Section IV-A: clean hits of latency-insensitive threads are bypassed
	// to main memory before those of latency-sensitive ones. Sensitive
	// threads only consume IFRM credits while more than half of the
	// window's grant remains.
	ThreadAware bool
	// LatencySensitive marks each core (indexed by core id) as
	// latency-sensitive; only consulted when ThreadAware is set.
	LatencySensitive []bool
}

// Validate checks the DAP parameters. Zero values that NewDAP defaults
// (Window, Efficiency, MaxKDen, CreditCap, SFRMReserve) are accepted;
// everything else must be in range. All problems are reported at once.
func (c *Config) Validate() error {
	var errs check.Collector
	if c.Arch > EDRAMArch {
		errs.Addf("Arch", c.Arch, "unknown DAP architecture")
	}
	if !(c.BMSGBps > 0) {
		errs.Addf("BMSGBps", c.BMSGBps, "memory-side cache bandwidth must be positive")
	}
	if !(c.BMMGBps > 0) {
		errs.Addf("BMMGBps", c.BMMGBps, "main-memory bandwidth must be positive")
	}
	if c.Efficiency < 0 || c.Efficiency > 1 {
		errs.Addf("Efficiency", c.Efficiency, "must lie in (0, 1] (0 selects the default)")
	}
	if c.MaxKDen < 0 {
		errs.Addf("MaxKDen", c.MaxKDen, "must not be negative")
	}
	if c.CreditCap < 0 {
		errs.Addf("CreditCap", c.CreditCap, "must not be negative")
	}
	if c.SFRMReserve < 0 || c.SFRMReserve > 1 {
		errs.Addf("SFRMReserve", c.SFRMReserve, "must lie in (0, 1] (0 selects the default)")
	}
	if c.ThreadAware && len(c.LatencySensitive) == 0 {
		errs.Addf("LatencySensitive", c.LatencySensitive, "thread-aware IFRM needs per-core sensitivity flags")
	}
	return errs.Err()
}

// DefaultConfig returns the paper's default DAP parameters for the given
// architecture and bandwidth point.
func DefaultConfig(arch Arch, bmsGBps, bmmGBps float64) Config {
	return Config{
		Arch: arch, BMSGBps: bmsGBps, BMMGBps: bmmGBps,
		Window: 64, Efficiency: 0.75,
		MaxKDen: 4, CreditCap: 255, SFRMReserve: 0.8,
	}
}

// SourceBandwidths returns the derated (Efficiency-scaled) per-source
// bandwidths in GB/s that DAP solves over and the decision audit evaluates
// Equation 2 over: the memory-side cache (its read and write channel sets
// on eDRAM), then main memory, ordered like the records' fraction vectors.
func (c Config) SourceBandwidths() []float64 {
	bms := c.BMSGBps * c.Efficiency
	bmm := c.BMMGBps * c.Efficiency
	if c.Arch == EDRAMArch {
		return []float64{bms, bms, bmm}
	}
	return []float64{bms, bmm}
}

// DAP is the dynamic access partitioner. It samples the demand profile every
// Window cycles and refills the four credit counters by solving the
// bandwidth-balance equations of Section IV; controllers then drain the
// credits at each technique's application point.
//
// All window arithmetic is integer-only, mirroring the hardware: K is the
// rational Num/Den, WB and IFRM credits are stored pre-multiplied by (K+1)
// — i.e. by (Num+Den) in units of Den — exactly as the paper stores
// (K+1)N_WB to avoid a division.
type DAP struct {
	cfg Config
	eng *sim.Engine
	wc  *WindowCounts

	k Ratio

	// per-window capacities in accesses (already derated by Efficiency)
	bmsWinR int64 // read channels (== total for single-channel archs)
	bmsWinW int64 // write channels (eDRAM only)
	bmmWin  int64

	// Per-access fast path: the credit cost of one application, fixed at
	// construction (costFWB = Den, costUnit = Num+Den), so each Take* is a
	// single compare-and-decrement against a live counter. Disable flags
	// are folded into the live counters at credit install (a disabled
	// technique's counter is forced to zero), and the thread-aware IFRM
	// watermark is precomputed as ifrmHalf, so no per-access decision reads
	// the Config.
	costFWB, costUnit int64
	// taSensitive aliases cfg.LatencySensitive when thread-aware IFRM is
	// on; nil otherwise, making the common-case check one pointer test.
	taSensitive []bool

	// raw credit counters; fwb and sfrm in units of Den, wb and ifrm in
	// units of (Num+Den) [one application costs Num+Den], wt in units 1.
	fwb, wb, ifrm, sfrm, wt int64
	// ifrmGrant is this window's IFRM grant (thread-aware watermark);
	// ifrmHalf is its precomputed half.
	ifrmGrant, ifrmHalf int64

	// rawFWB..rawWT hold the window's clamped grants before Disable
	// folding. They exist for the decision recorder, which must observe
	// what the solver granted rather than what the controllers can drain,
	// and are overwritten at every rollover (never serialized).
	rawFWB, rawWB, rawIFRM, rawSFRM, rawWT int64
	// smooth carries the EWMA-filtered counts when EWMALearning is set.
	smooth WindowCounts

	dec stats.DAPDecisions

	// rec, when non-nil, captures a DecisionRecord at every window
	// rollover (strict observer; see decision.go).
	rec *DecisionRecorder

	// Windows counts recomputations; Partitioned counts windows where any
	// partitioning was invoked (useful in tests and for insensitive
	// workloads, where this should be near zero).
	Windows, Partitioned uint64

	stopped bool
}

// NewDAP builds a DAP instance observing wc and schedules its window timer
// on eng.
func NewDAP(cfg Config, eng *sim.Engine, wc *WindowCounts) *DAP {
	if cfg.Window == 0 {
		cfg.Window = 64
	}
	if cfg.Efficiency == 0 {
		cfg.Efficiency = 0.75
	}
	if cfg.MaxKDen == 0 {
		cfg.MaxKDen = 4
	}
	if cfg.CreditCap == 0 {
		cfg.CreditCap = 255
	}
	if cfg.SFRMReserve == 0 {
		cfg.SFRMReserve = 0.8
	}
	d := &DAP{cfg: cfg, eng: eng, wc: wc}
	bms := mem.AccessesPerCycle(cfg.BMSGBps) * cfg.Efficiency
	bmm := mem.AccessesPerCycle(cfg.BMMGBps) * cfg.Efficiency
	d.k = ApproxRatio(bms/bmm, cfg.MaxKDen)
	d.costFWB = d.k.Den
	d.costUnit = d.k.Num + d.k.Den
	if cfg.ThreadAware {
		d.taSensitive = cfg.LatencySensitive
	}
	w := float64(cfg.Window)
	d.bmsWinR = int64(bms * w)
	d.bmsWinW = d.bmsWinR
	d.bmmWin = int64(bmm * w)
	eng.AfterArg(cfg.Window, windowTick, d, 0)
	return d
}

// windowTick is the window timer's top-level handler: scheduling it through
// AfterArg with the DAP as ctx costs no allocation, where the method value
// d.window allocated one closure per window — the simulator's largest
// steady-state allocation site once the access paths went allocation-free.
func windowTick(ctx any, _ uint64, _ mem.Cycle) { ctx.(*DAP).window() }

// Stop halts the window timer (end of a simulation).
func (d *DAP) Stop() { d.stopped = true }

// Credits returns the raw credit counters (fwb and sfrm in units of Den,
// wb and ifrm in units of Num+Den, wt in units of one) for diagnostics and
// the runtime invariant auditor.
func (d *DAP) Credits() (fwb, wb, ifrm, sfrm, wt int64) {
	return d.fwb, d.wb, d.ifrm, d.sfrm, d.wt
}

// AuditCredits verifies the credit-counter invariants the hardware's
// saturating arithmetic guarantees: no counter may be negative or exceed
// its saturation bound. A corrupted credit update violates one of these.
func (d *DAP) AuditCredits() error {
	den, unit := d.k.Den, d.k.Num+d.k.Den
	bounds := []struct {
		name string
		v    int64
		cap  int64
	}{
		{"fwb", d.fwb, d.cfg.CreditCap * den},
		{"wb", d.wb, d.cfg.CreditCap * unit / den},
		{"ifrm", d.ifrm, d.cfg.CreditCap * unit / den},
		{"sfrm", d.sfrm, d.cfg.CreditCap},
		{"wt", d.wt, d.cfg.CreditCap},
	}
	for _, b := range bounds {
		if b.v < 0 {
			return fmt.Errorf("dap credit %s = %d: negative", b.name, b.v)
		}
		if b.v > b.cap {
			return fmt.Errorf("dap credit %s = %d: exceeds saturation bound %d", b.name, b.v, b.cap)
		}
	}
	return nil
}

// InjectCreditFault adds delta to every credit counter, bypassing the
// saturating clamp. It exists solely for fault injection: tests use it to
// verify the invariant auditor detects corrupted credit state.
func (d *DAP) InjectCreditFault(delta int64) {
	d.fwb += delta
	d.wb += delta
	d.ifrm += delta
	d.sfrm += delta
	d.wt += delta
}

// K returns the rational bandwidth ratio in use.
func (d *DAP) K() Ratio { return d.k }

// Decisions implements Partitioner.
func (d *DAP) Decisions() stats.DAPDecisions { return d.dec }

// TakeFWB implements Partitioner (credit unit: Den per application).
// Disabled techniques install zero credits, so the common unpartitioned
// case is a single compare.
func (d *DAP) TakeFWB() bool {
	if d.fwb < d.costFWB {
		return false
	}
	d.fwb -= d.costFWB
	d.dec.FWB++
	return true
}

// TakeWB implements Partitioner (credit unit: Num+Den per application).
func (d *DAP) TakeWB() bool {
	if d.wb < d.costUnit {
		return false
	}
	d.wb -= d.costUnit
	d.dec.WB++
	return true
}

// TakeIFRM implements Partitioner (credit unit: Num+Den per application).
// With ThreadAware set, latency-sensitive cores only consume credits while
// more than half of this window's grant remains, so insensitive threads'
// clean hits are bypassed first (Section IV-A).
func (d *DAP) TakeIFRM(core int) bool {
	if d.ifrm < d.costUnit {
		return false
	}
	if d.taSensitive != nil && core >= 0 && core < len(d.taSensitive) &&
		d.taSensitive[core] && d.ifrm <= d.ifrmHalf {
		return false
	}
	d.ifrm -= d.costUnit
	d.dec.IFRM++
	return true
}

// TakeSFRM implements Partitioner.
func (d *DAP) TakeSFRM() bool {
	if d.sfrm < 1 {
		return false
	}
	d.sfrm--
	d.dec.SFRM++
	return true
}

// TakeWT implements Partitioner (Alloy write-through credits).
func (d *DAP) TakeWT() bool {
	if d.wt < 1 {
		return false
	}
	d.wt--
	return true
}

// window is the periodic recomputation (Figure 3).
func (d *DAP) window() {
	if d.stopped {
		return
	}
	d.eng.AfterArg(d.cfg.Window, windowTick, d, 0)
	w := *d.wc
	d.wc.reset()
	if d.cfg.Backlog != nil {
		msR, msW, mm := d.cfg.Backlog()
		w.AMSR += msR
		w.AMSW += msW
		w.AMM += mm
	}
	if d.cfg.EWMALearning {
		s := &d.smooth
		s.AMSR = (s.AMSR + w.AMSR) / 2
		s.AMSW = (s.AMSW + w.AMSW) / 2
		s.AMM = (s.AMM + w.AMM) / 2
		s.Rm = (s.Rm + w.Rm) / 2
		s.Wm = (s.Wm + w.Wm) / 2
		s.CleanHits = (s.CleanHits + w.CleanHits) / 2
		w = *s
	}
	d.Windows++

	switch d.cfg.Arch {
	case EDRAMArch:
		d.solveEDRAM(&w)
	case AlloyArch:
		d.solveAlloy(&w)
	default:
		d.solveSectored(&w)
	}

	if d.rec != nil {
		d.recordDecision(&w)
	}
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// setCredits installs the window's solution with saturation. Raw units: fwb
// and sfrm scale by Den; wb/ifrm are already in (Num+Den) units. The
// clamped solver grants land in the raw* fields for the decision recorder;
// the live counters the Take* fast paths drain additionally fold the
// Disable flags (a disabled technique's counter is forced to zero, so no
// per-access check is needed).
func (d *DAP) setCredits(fwbRaw, wbRaw, ifrmRaw, sfrm, wt int64) {
	den := d.costFWB
	unit := d.costUnit
	d.rawFWB = clamp(fwbRaw, 0, d.cfg.CreditCap*den)
	d.rawWB = clamp(wbRaw, 0, d.cfg.CreditCap*unit/den)
	d.rawIFRM = clamp(ifrmRaw, 0, d.cfg.CreditCap*unit/den)
	d.rawSFRM = clamp(sfrm, 0, d.cfg.CreditCap)
	d.rawWT = clamp(wt, 0, d.cfg.CreditCap)
	if d.rawFWB > 0 || d.rawWB > 0 || d.rawIFRM > 0 || d.rawSFRM > 0 || d.rawWT > 0 {
		d.Partitioned++
	}
	d.fwb, d.wb, d.ifrm, d.sfrm, d.wt = d.rawFWB, d.rawWB, d.rawIFRM, d.rawSFRM, d.rawWT
	if d.cfg.Disable.FWB {
		d.fwb = 0
	}
	if d.cfg.Disable.WB {
		d.wb = 0
	}
	if d.cfg.Disable.IFRM {
		d.ifrm = 0
	}
	if d.cfg.Disable.SFRM {
		d.sfrm = 0
	}
	d.ifrmGrant = d.ifrm
	d.ifrmHalf = d.ifrmGrant / 2
}

// solveSectored implements the Figure 3 flow for the sectored DRAM cache:
// a single set of cache channels serving both reads and writes, metadata in
// the cache, SFRM available.
func (d *DAP) solveSectored(w *WindowCounts) {
	p, q := d.k.Num, d.k.Den
	ams, amm := w.AMS(), w.AMM
	if ams <= d.bmsWinR {
		d.setCredits(0, 0, 0, 0, 0)
		return
	}
	// N_FWB = A_MS$ - K*A_MM, capped by the bandwidth excess and by the
	// number of read-miss fills available (all scaled by q).
	nfwb := q*ams - p*amm
	if nfwb <= 0 {
		// main memory is the bottleneck: exit partitioning
		d.setCredits(0, 0, 0, 0, 0)
		return
	}
	if max := q * (ams - d.bmsWinR); nfwb > max {
		nfwb = max
	}
	var nwb, nifrm int64
	if nfwb > q*w.Rm {
		nfwb = q * w.Rm
		// (K+1)N_WB = A_MS$ - K*A_MM - R_m    [units of q]
		nwb = q*ams - p*amm - q*w.Rm
		if nwb > (p+q)*w.Wm {
			nwb = (p + q) * w.Wm
			// (K+1)N_IFRM = A_MS$ - K*(A_MM + W_m) - R_m - W_m
			nifrm = q*ams - p*(amm+w.Wm) - q*w.Rm - q*w.Wm
			if nifrm > (p+q)*w.CleanHits {
				nifrm = (p + q) * w.CleanHits
			}
			if nifrm < 0 {
				nifrm = 0
			}
		}
		if nwb < 0 {
			nwb = 0
		}
	}
	// N_SFRM = reserve * (B_MM*W - A_MM - N_WB - N_IFRM), >= 0.
	spare := float64(d.bmmWin-amm) - float64(nwb+nifrm)/float64(p+q)
	nsfrm := int64(d.cfg.SFRMReserve * spare)
	if nsfrm < 0 {
		nsfrm = 0
	}
	d.setCredits(nfwb, nwb, nifrm, nsfrm, 0)
}

// solveAlloy implements Section IV-B: tag and data are fused (TAD), so
// write bypass and explicit fill bypass are unavailable; IFRM (with implied
// fill bypass) is computed from Equation 8 and residual main-memory
// bandwidth funds write-throughs that keep blocks clean.
func (d *DAP) solveAlloy(w *WindowCounts) {
	p, q := d.k.Num, d.k.Den
	ams, amm := w.AMS(), w.AMM
	if ams <= d.bmsWinR {
		d.setCredits(0, 0, 0, 0, 0)
		return
	}
	// (K+1)N_IFRM = A_MS$ - K*A_MM   [units of q]
	nifrm := q*ams - p*amm
	if nifrm <= 0 {
		d.setCredits(0, 0, 0, 0, 0)
		return
	}
	if nifrm > (p+q)*w.CleanHits {
		nifrm = (p + q) * w.CleanHits
	}
	// Residual main-memory bandwidth funds write-through.
	spare := float64(d.bmmWin-amm) - float64(nifrm)/float64(p+q)
	nwt := int64(d.cfg.SFRMReserve * spare)
	if nwt < 0 {
		nwt = 0
	}
	if nwt > w.Wm {
		nwt = w.Wm
	}
	d.setCredits(0, 0, nifrm, 0, nwt)
}

// solveEDRAM implements Section IV-C: three bandwidth sources (independent
// read and write channel sets plus main memory), on-die metadata (no SFRM),
// and the three demand scenarios of Equations 9-12.
func (d *DAP) solveEDRAM(w *WindowCounts) {
	p, q := d.k.Num, d.k.Den
	readShort := w.AMSR > d.bmsWinR
	writeShort := w.AMSW > d.bmsWinW

	switch {
	case readShort && !writeShort:
		// (i) Equation 9: (K+1)N_IFRM = A_MS$-R - K*A_MM
		nifrm := q*w.AMSR - p*w.AMM
		if nifrm > (p+q)*w.CleanHits {
			nifrm = (p + q) * w.CleanHits
		}
		if nifrm < 0 {
			nifrm = 0
		}
		d.setCredits(0, 0, nifrm, 0, 0)

	case writeShort && !readShort:
		// (ii) Equation 10: N_FWB = A_MS$-W - K*A_MM
		nfwb := q*w.AMSW - p*w.AMM
		if nfwb < 0 {
			nfwb = 0
		}
		if nfwb > q*w.Rm {
			nfwb = q * w.Rm
		}
		// Equation 11: (K+1)N_WB = (A_MS$-W - N_FWB) - K*A_MM
		nwb := q*w.AMSW - nfwb - p*w.AMM
		if nwb > (p+q)*w.Wm {
			nwb = (p + q) * w.Wm
		}
		if nwb < 0 {
			nwb = 0
		}
		d.setCredits(nfwb, nwb, 0, 0, 0)

	case readShort && writeShort:
		// (iii) N_FWB from Equation 10, then the simultaneous solution:
		// (2K+1)N_WB   = (K+1)(A_MS$-W - N_FWB) - K*A_MS$-R - K*A_MM
		// (2K+1)N_IFRM = (K+1)A_MS$-R - K*(A_MS$-W - N_FWB) - K*A_MM
		nfwb := q*w.AMSW - p*w.AMM
		if nfwb < 0 {
			nfwb = 0
		}
		if nfwb > q*w.Rm {
			nfwb = q * w.Rm
		}
		// Work in units of q^2 to keep everything integral: let
		// a = q*A_MS$-W - N_FWBraw (units q), r = q*A_MS$-R, m = q*A_MM.
		a := q*w.AMSW - nfwb
		r := q * w.AMSR
		m := q * w.AMM
		// (2K+1) in units of q is (2p+q)/q; credits stored in units of
		// (2p+q) so one application costs (2p+q) and values below are in
		// units of q^2 -> divide by q once to land in (2p+q)*... units.
		nwb := ((p+q)*a - p*r - p*m) / q
		nifrm := ((p+q)*r - p*a - p*m) / q
		if nwb > (2*p+q)*w.Wm {
			nwb = (2*p + q) * w.Wm
		}
		if nwb < 0 {
			nwb = 0
		}
		if nifrm > (2*p+q)*w.CleanHits {
			nifrm = (2*p + q) * w.CleanHits
		}
		if nifrm < 0 {
			nifrm = 0
		}
		// Rescale (2K+1)-unit credits into the (K+1)-unit counters used
		// by Take*: value * (K+1)/(2K+1).
		nwb = nwb * (p + q) / (2*p + q)
		nifrm = nifrm * (p + q) / (2*p + q)
		d.setCredits(nfwb, nwb, nifrm, 0, 0)

	default:
		d.setCredits(0, 0, 0, 0, 0)
	}
}
