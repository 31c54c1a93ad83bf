// Package harness assembles complete simulated systems (cores + SRAM
// hierarchy + memory-side cache + main memory + partitioning policy), runs
// workloads on them, and provides one driver per table and figure of the
// paper's evaluation.
package harness

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"dap/internal/core"
	"dap/internal/cpu"
	"dap/internal/dram"
	"dap/internal/faultinject"
	"dap/internal/mem"
	"dap/internal/mscache"
	"dap/internal/obs"
	"dap/internal/policy"
	"dap/internal/runner"
	"dap/internal/sim"
	"dap/internal/stats"
	"dap/internal/workload"
)

// Arch selects the memory-side cache architecture.
type Arch int

// Architectures.
const (
	SectoredDRAM Arch = iota
	AlloyCache
	SectoredEDRAM
	NoMSCache // main memory only (sanity baselines)
)

// Policy selects the steering/partitioning policy on top of the cache.
type Policy int

// Policies.
const (
	Baseline Policy = iota
	DAP
	DAPFWBWB // DAP with only FWB+WB enabled (Figure 8's middle series)
	SBD
	SBDWT
	BATMAN
)

func (a Arch) String() string {
	switch a {
	case SectoredDRAM:
		return "sectored"
	case AlloyCache:
		return "alloy"
	case SectoredEDRAM:
		return "edram"
	case NoMSCache:
		return "none"
	}
	return fmt.Sprintf("arch(%d)", int(a))
}

func (p Policy) String() string {
	switch p {
	case Baseline:
		return "baseline"
	case DAP:
		return "dap"
	case DAPFWBWB:
		return "dap-fwb-wb"
	case SBD:
		return "sbd"
	case SBDWT:
		return "sbd-wt"
	case BATMAN:
		return "batman"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseArch resolves an architecture name ("sectored", "alloy", "edram",
// "none") to its enum.
func ParseArch(name string) (Arch, error) {
	for _, a := range []Arch{SectoredDRAM, AlloyCache, SectoredEDRAM, NoMSCache} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown arch %q (want sectored|alloy|edram|none)", name)
}

// ParsePolicy resolves a policy name ("baseline", "dap", "dap-fwb-wb",
// "sbd", "sbd-wt", "batman") to its enum.
func ParsePolicy(name string) (Policy, error) {
	for _, p := range []Policy{Baseline, DAP, DAPFWBWB, SBD, SBDWT, BATMAN} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want baseline|dap|dap-fwb-wb|sbd|sbd-wt|batman)", name)
}

// Config is a full system configuration.
type Config struct {
	CPU        cpu.Config
	MainMemory dram.Config

	Arch     Arch
	Sectored mscache.SectoredConfig
	Alloy    mscache.AlloyConfig
	EDRAM    mscache.EDRAMConfig

	Policy Policy
	// DAPOverride, when non-nil, replaces the architecture-derived DAP
	// parameters (Table I sensitivity and the ablations).
	DAPOverride *core.Config
	// ThreadAwareIFRM enables the Section IV-A thread-aware IFRM variant:
	// pointer-chasing (latency-sensitive) threads keep their clean hits in
	// the cache while insensitive threads' hits are bypassed first.
	ThreadAwareIFRM bool

	// WarmAccesses is the functional warmup length per core (accesses).
	WarmAccesses int
	// MeasureInstr is the timed run length per core (instructions).
	MeasureInstr uint64
	// MaxCycles aborts a runaway simulation (0 = a large default).
	MaxCycles mem.Cycle

	// Audit enables the runtime invariant auditor: every AuditEvery cycles
	// the run checks DAP credit bounds, request conservation, delivered
	// bandwidth against source peaks, and sector-cache mask consistency,
	// aborting with an AuditError on the first violation.
	Audit bool
	// AuditEvery is the audit window in cycles (0 = 4096).
	AuditEvery mem.Cycle
	// WatchdogEvents arms the forward-progress watchdog: the run aborts with
	// a sim.StallError once roughly this many consecutive events execute
	// without the slowest unfinished core retiring an instruction. 0 uses
	// DefaultWatchdogEvents; negative disables the watchdog.
	WatchdogEvents int
	// Faults, when non-nil, arms deterministic fault injection over the run
	// (dropped DRAM responses, delayed metadata fetches, corrupted DAP
	// credits) — the adversarial half of the hardening layer's test story.
	Faults *faultinject.Plan

	// Observe selects the run's observers. None of them changes a result,
	// so they stay out of every configuration key (see cfgKey).
	Observe Observe
}

// Observe selects the observers of a run. Every observer is strictly
// read-only: a run with any of them on yields a bit-identical stats.Run
// (the TestObservabilityIsBitIdentical* and
// TestDecisionRecordingIsBitIdentical proofs), and every buffer they fill
// has a fixed size.
type Observe struct {
	// MetricsEvery enables the windowed metrics sampler: every MetricsEvery
	// cycles the run samples DAP credits, technique activations,
	// per-channel bandwidth and queue depth, MS$ hit and tag-cache miss
	// ratios, and per-core IPC into Result.Metrics, which keeps the newest
	// 4,096 windows. 0 disables sampling.
	MetricsEvery mem.Cycle
	// TraceEvery enables the request-lifecycle tracer on every
	// TraceEvery-th L3 read miss (1 traces all, 0 disables it). Traced
	// misses are stamped through queue → tag/metadata probe → DAP decision
	// → service → response; the first 65,536 are kept in Result.Trace
	// (Chrome trace JSON export) and every one feeds Result.Breakdown
	// (phase-latency histograms).
	TraceEvery int
	// Flight enables the stall flight recorder: the newest 256 engine-state
	// summaries, sampled every watchdog deadline/64 executed events (65,536
	// with the watchdog off), frozen into Result.Flight. When the run aborts
	// (watchdog stall, deadlock, audit violation, injected fault) the
	// recording turns the failure into a postmortem artifact.
	Flight bool
	// Decisions enables the DAP decision recorder: every DAP window
	// rollover captures a record of the solver's inputs (window counts),
	// outputs (credit refills), the implied per-source access fractions,
	// and a counterfactual optimality-gap audit against the Equation 3
	// bound. Result.Decisions keeps the newest 65,536 records; a run with
	// no DAP partitioner records nothing.
	Decisions bool
}

// DefaultWatchdogEvents is the watchdog deadline when Config.WatchdogEvents
// is zero. At typical event densities (a handful of events per busy cycle)
// it corresponds to roughly a million cycles with a core making no forward
// progress — far past any legitimate queueing delay.
const DefaultWatchdogEvents = 4_000_000

// Default returns the paper's default system: eight cores, a 4 GB (scaled
// 64 MB) sectored HBM DRAM cache at 102.4 GB/s with tag cache and footprint
// prefetcher, and dual-channel DDR4-2400 main memory.
func Default() Config {
	c := Config{
		CPU:          cpu.Default(),
		MainMemory:   dram.DDR4_2400(),
		Arch:         SectoredDRAM,
		Sectored:     mscache.DefaultSectored(),
		Alloy:        mscache.DefaultAlloy(),
		EDRAM:        mscache.DefaultEDRAM(),
		Policy:       Baseline,
		WarmAccesses: 400_000,
		MeasureInstr: 3_000_000,
	}
	// the SRAM tag cache / DBC borrows one L3 way (Section V)
	c.CPU.L3Ways = 15
	return c
}

// Quick returns a shortened configuration for unit tests and quick figures.
// Warmup still covers the largest workload footprints at least once.
func Quick() Config {
	c := Default()
	c.WarmAccesses = 180_000
	c.MeasureInstr = 400_000
	return c
}

// Result captures everything one run measures.
type Result struct {
	stats.Run
	Config Config
	// Abort is non-nil when the run ended abnormally: a *sim.StallError from
	// the forward-progress watchdog or deadlock detector, or an *AuditError
	// from the runtime invariant auditor. Figures built from an aborted run
	// would be fiction, so drivers must check it (RunMixE does).
	Abort error

	// Metrics holds the windowed time series (nil unless
	// Config.Observe.MetricsEvery > 0). Export with WriteCSV.
	Metrics *obs.Sampler
	// Trace holds the sampled request-lifecycle spans (nil unless
	// Config.Observe.TraceEvery > 0). Export with WriteChromeTrace.
	Trace *obs.Tracer
	// Breakdown aggregates traced L3-miss phase latencies by serving source
	// and DAP technique (nil unless tracing). It lives here rather than
	// inside stats.Run so instrumented runs keep a bit-identical Run.
	Breakdown *stats.LatencyBreakdown
	// Flight holds the stall flight recording (nil unless
	// Config.Observe.Flight). On an aborted run its entries, oldest first,
	// are the postmortem: dapsim prints them after the diagnostic.
	Flight *obs.FlightRecorder
	// Decisions holds the per-window DAP decision records (nil unless
	// Config.Observe.Decisions and the run has a DAP partitioner). Export
	// with Decisions.WriteCSV.
	Decisions *core.DecisionRecorder
}

// OptimalMainMemFraction is the main-memory share of accesses that
// Equations 3 and 4 call optimal for the run's system, the counterpart of
// MainMemCASFraction: main memory's share of the source bandwidths DAP
// solves over. Without a memory-side cache every access goes to main
// memory.
func (r *Result) OptimalMainMemFraction() float64 {
	if r.Config.Arch == NoMSCache {
		return 1
	}
	dc := dapConfigFor(&r.Config)
	f := core.OptimalFractions(dc.SourceBandwidths())
	return f[len(f)-1]
}

// dapConfigFor derives the DAP parameters for the configured architecture.
func dapConfigFor(cfg *Config) core.Config {
	if cfg.DAPOverride != nil {
		return *cfg.DAPOverride
	}
	mmBW := cfg.MainMemory.PeakGBps()
	switch cfg.Arch {
	case AlloyCache:
		return core.DefaultConfig(core.AlloyArch,
			mscache.AlloyEffectiveGBps(cfg.Alloy.Array.PeakGBps()), mmBW)
	case SectoredEDRAM:
		return core.DefaultConfig(core.EDRAMArch, cfg.EDRAM.ReadArray.PeakGBps(), mmBW)
	default:
		return core.DefaultConfig(core.SectoredArch, cfg.Sectored.Array.PeakGBps(), mmBW)
	}
}

// mmOnly is the architecture-free backend used by NoMSCache configurations.
type mmOnly struct {
	mm *dram.Device
	st stats.MemSideStats
	tr *obs.Tracer
}

func (m *mmOnly) Read(a mem.Addr, c int, k mem.Kind, done func(mem.Cycle)) {
	m.st.ReadMisses++
	sp := m.tr.Read(c, a, k)
	sp.Serve(stats.BDSrcMain)
	m.mm.AccessTraced(a, k, obs.OnIssue(sp), sp.Wrap(done))
}
func (m *mmOnly) Writeback(a mem.Addr, c int) {
	m.mm.Access(a, mem.WritebackKind, nil)
}
func (m *mmOnly) WarmRead(mem.Addr, int)       {}
func (m *mmOnly) WarmWriteback(mem.Addr, int)  {}
func (m *mmOnly) MSStats() *stats.MemSideStats { return &m.st }
func (m *mmOnly) CacheCAS() uint64             { return 0 }
func (m *mmOnly) ResetStats()                  { m.st = stats.MemSideStats{} }
func (m *mmOnly) SetTracer(t *obs.Tracer)      { m.tr = t }

// System is an assembled simulation ready to run.
type System struct {
	Cfg  Config
	Eng  *sim.Engine
	MM   *dram.Device
	Ctrl mscache.Controller
	CPU  *cpu.CPU
	Part core.Partitioner

	// The observers selected by Cfg.Observe (nil when off);
	// finishObservers hands them to the Result.
	metrics *obs.Sampler
	trace   *obs.Tracer
	flight  *obs.FlightRecorder
	decRec  *core.DecisionRecorder

	dap      *core.DAP
	sectored *mscache.Sectored // the sectored DRAM or eDRAM cache
	alloy    *mscache.Alloy
	inj      *faultinject.Injector
	counts   *reqCounter

	mix  workload.Mix // resized to Cores
	seed uint64
}

// Build assembles a system for the given mix.
func Build(cfg Config, mix workload.Mix) *System {
	if len(mix.Specs) != cfg.CPU.Cores {
		// allow rate mixes authored for a different core count
		mix = workload.Mix{Name: mix.Name, Specs: resize(mix.Specs, cfg.CPU.Cores)}
	}
	s := &System{Cfg: cfg, Eng: sim.New(), mix: mix}
	s.MM = dram.NewDevice(cfg.MainMemory, s.Eng)
	s.Part = core.Nop{}

	switch cfg.Arch {
	case NoMSCache:
		s.Ctrl = &mmOnly{mm: s.MM}
	case AlloyCache:
		ac := cfg.Alloy
		if cfg.Policy == DAP || cfg.Policy == DAPFWBWB {
			ac.BEAR = true // DAP builds on the BEAR presence bit (Section IV-B)
		}
		s.alloy = mscache.NewAlloy(ac, s.Eng, s.MM, s.Part)
		s.Ctrl = s.alloy
	case SectoredEDRAM:
		s.sectored = mscache.NewEDRAM(cfg.EDRAM, s.Eng, s.MM, s.Part)
		s.Ctrl = s.sectored
	default:
		sc := mscache.NewSectored(cfg.Sectored, s.Eng, s.MM, s.Part)
		s.sectored = sc
		switch cfg.Policy {
		case SBD:
			sc.SBD = policy.NewSBD(false)
		case SBDWT:
			sc.SBD = policy.NewSBD(true)
		case BATMAN:
			sets := cfg.Sectored.CapacityBytes / cfg.Sectored.SectorBytes / cfg.Sectored.Ways
			sc.BATMAN = policy.NewBATMAN(sets,
				cfg.Sectored.Array.PeakGBps(), cfg.MainMemory.PeakGBps())
		}
		s.Ctrl = sc
	}
	// NewDAP arms the window timer, so it keeps its place in the event
	// order: right after the controller, ahead of the faults, the CPU and
	// the observers.
	if pc, ok := s.Ctrl.(partitioned); ok && (cfg.Policy == DAP || cfg.Policy == DAPFWBWB) {
		dc := dapWithPolicy(cfg, mix)
		dc.Backlog = s.backlog()
		d := core.NewDAP(dc, s.Eng, pc.Windows())
		pc.SetPartitioner(d)
		s.Part, s.dap = d, d
		if cfg.Observe.Decisions {
			s.decRec = core.NewDecisionRecorder()
			d.SetRecorder(s.decRec)
		}
	}

	if cfg.Faults != nil {
		s.inj = faultinject.New(*cfg.Faults)
		hook := s.inj.DeviceHook()
		s.MM.Fault = hook
		for _, d := range s.devices()[1:] { // cache-side devices
			d.Fault = hook
		}
	}
	backend := s.Ctrl
	if cfg.Audit {
		// count requests through the controller boundary so the auditor can
		// check conservation (issued == completed + in-flight) and catch
		// double completions; a pure pass-through, so audited and unaudited
		// runs stay bit-identical.
		s.counts = &reqCounter{inner: s.Ctrl, eng: s.Eng}
		backend = s.counts
	}
	s.CPU = cpu.New(cfg.CPU, s.Eng, backend)
	s.CPU.SetStreams(mix.StreamsSeeded(0))

	if o := cfg.Observe; o.TraceEvery > 0 {
		s.trace = obs.NewTracer(s.Eng.Clock(), o.TraceEvery, 0)
		s.setTracer(s.trace)
	}
	if every := cfg.Observe.MetricsEvery; every > 0 {
		s.metrics = obs.NewSampler(s.Eng.Clock(), s.Eng.After, s.Eng.Pending, every, 0)
		s.registerMetrics()
	}
	if cfg.Observe.Flight {
		s.flight = obs.NewFlightRecorder(0)
	}
	return s
}

// partitioned is the part of a memory-side cache controller DAP attaches
// to: its per-window demand counters and its partitioner slot.
type partitioned interface {
	Windows() *core.WindowCounts
	SetPartitioner(core.Partitioner)
}

// backlog reports the requests still queued at the cache's read channel,
// its write channel (eDRAM only, else 0) and main memory: the backlog term
// DAP adds to each window's demand.
func (s *System) backlog() func() (msR, msW, mm int64) {
	cache := s.devices()[1:] // the read channel, then the eDRAM write channel
	return func() (msR, msW, mm int64) {
		msR = int64(cache[0].QueueLen())
		if len(cache) > 1 {
			msW = int64(cache[1].QueueLen())
		}
		return msR, msW, int64(s.MM.QueueLen())
	}
}

// setTracer attaches the lifecycle tracer to whichever controller backs the
// system (all controllers and mmOnly implement the optional interface).
func (s *System) setTracer(t *obs.Tracer) {
	if c, ok := s.Ctrl.(interface{ SetTracer(*obs.Tracer) }); ok {
		c.SetTracer(t)
	}
}

// devices lists every bandwidth source in the system, main memory first.
func (s *System) devices() []*dram.Device {
	devs := []*dram.Device{s.MM}
	switch {
	case s.sectored != nil:
		devs = append(devs, s.sectored.Devices()...)
	case s.alloy != nil:
		devs = append(devs, s.alloy.Device())
	}
	return devs
}

func dapWithPolicy(cfg Config, mix workload.Mix) core.Config {
	dc := dapConfigFor(&cfg)
	if cfg.Policy == DAPFWBWB {
		dc.Disable.IFRM = true
		dc.Disable.SFRM = true
	}
	if cfg.ThreadAwareIFRM {
		dc.ThreadAware = true
		dc.LatencySensitive = make([]bool, len(mix.Specs))
		for i, sp := range mix.Specs {
			dc.LatencySensitive[i] = sp.ChaseFrac >= 0.2
		}
	}
	return dc
}

func resize(specs []workload.Spec, n int) []workload.Spec {
	out := make([]workload.Spec, n)
	for i := range out {
		out[i] = specs[i%len(specs)]
	}
	return out
}

// Warmup executes the functional warmup: WarmAccesses accesses per core
// stream through the SRAM hierarchy and the memory-side tags without
// advancing the engine clock. The post-warmup state is exactly what
// SaveCheckpoint captures and LoadCheckpoint restores, so
// Warmup-then-Measure and restore-then-Measure are bit-identical.
func (s *System) Warmup() {
	s.CPU.Warm(s.Cfg.WarmAccesses)
}

// Measure runs the timed region on an already-warm system and collects the
// results. A run is Warmup (or LoadCheckpoint) then Measure; see simulate.
// It resets the measured statistics, then runs until every core has
// retired MeasureInstr instructions or MaxCycles have passed.
func (s *System) Measure() Result {
	cfg := s.Cfg
	s.Ctrl.ResetStats()
	s.MM.ResetStats()
	if s.sectored != nil {
		s.sectored.StartBATMAN()
	}
	limit := cfg.MaxCycles
	if limit == 0 {
		limit = mem.Cycle(400 * cfg.MeasureInstr) // far beyond any plausible CPI
	}
	start := s.Eng.Now()
	s.CPU.Start(cfg.MeasureInstr)
	s.arm(limit)
	s.Eng.RunWhile(func() bool {
		return !s.CPU.Done() && s.Eng.Now()-start < limit
	})
	if s.dap != nil {
		s.dap.Stop()
	}

	var r Result
	r.Abort = s.Eng.Err()
	if r.Abort == nil && !s.CPU.Done() && s.Eng.Pending() == 0 {
		// The event queue drained with instructions still unretired: a true
		// deadlock (e.g. every response to a wedged MSHR was dropped). The
		// watchdog never fires here — no events execute — so detect it
		// directly.
		r.Abort = &sim.StallError{Cycle: s.Eng.Now(), Pending: 0, Snapshot: s.snapshot()}
	}
	s.collect(&r, s.Eng.Now()-start, s.CPU.CoreStats())
	s.finishObservers(&r)
	return r
}

// collect fills r with the configuration and the statistics of a timed
// region of the given length.
func (s *System) collect(r *Result, cycles mem.Cycle, cores []stats.CoreStats) {
	r.Config = s.Cfg
	r.Cycles = cycles
	r.Cores = cores
	r.MemSide = *s.Ctrl.MSStats()
	r.DAP = s.Part.Decisions()
	r.MSCacheCAS = s.Ctrl.CacheCAS()
	r.MainMemCAS = s.MM.Stats().CAS()
	r.DeliveredGBps = mem.GBPerSec((r.MSCacheCAS+r.MainMemCAS)*mem.LineBytes, cycles)
}

// watchdogEvents resolves WatchdogEvents to the armed deadline in events,
// or 0 when the watchdog is off.
func (c *Config) watchdogEvents() int {
	switch {
	case c.WatchdogEvents < 0:
		return 0
	case c.WatchdogEvents == 0:
		return DefaultWatchdogEvents
	}
	return c.WatchdogEvents
}

// flightSample is the engine's periodic flight-recorder feed: one compact
// line of system state per sample — enough to see queue growth, credit
// drift or frozen CPU progress across the ring's history without the cost
// of a full snapshot per sample.
func (s *System) flightSample(c mem.Cycle) {
	var b strings.Builder
	fmt.Fprintf(&b, "pending=%d progress=%d", s.Eng.Pending(), s.CPU.ProgressFingerprint())
	for _, d := range s.devices() {
		fmt.Fprintf(&b, " q[%s]=%d", d.Cfg.Name, d.QueueLen())
	}
	if s.dap != nil {
		fwb, wb, ifrm, sfrm, wt := s.dap.Credits()
		fmt.Fprintf(&b, " credits=fwb:%d,wb:%d,ifrm:%d,sfrm:%d,wt:%d", fwb, wb, ifrm, sfrm, wt)
	}
	s.flight.Add(c, b.String())
}

// snapshot captures the simulation state for a stall or audit diagnostic:
// engine position, per-core progress and queue state, per-device queue
// occupancies, and (when present) DAP credits and injected-fault counts.
func (s *System) snapshot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d, %d pending events\n", s.Eng.Now(), s.Eng.Pending())
	if s.counts != nil {
		fmt.Fprintf(&b, "memory requests: %d issued, %d completed, %d in flight\n",
			s.counts.Issued, s.counts.Completed, s.counts.InFlight())
	}
	b.WriteString(s.CPU.Snapshot())
	b.WriteByte('\n')
	for i, d := range s.devices() {
		name := d.Cfg.Name
		if i == 0 {
			name = "main memory (" + name + ")"
		}
		fmt.Fprintf(&b, "  %s: %d queued\n", name, d.QueueLen())
	}
	if s.dap != nil {
		fwb, wb, ifrm, sfrm, wt := s.dap.Credits()
		fmt.Fprintf(&b, "  dap credits: fwb %d, wb %d, ifrm %d, sfrm %d, wt %d\n",
			fwb, wb, ifrm, sfrm, wt)
	}
	if s.inj != nil {
		fmt.Fprintf(&b, "  %s\n", s.inj)
	}
	return strings.TrimRight(b.String(), "\n")
}

// simulations counts simulate calls in this process; tests read it to
// count the simulations a driver starts.
var simulations atomic.Int64

// simulate is the one body behind every entry point that runs a
// simulation: build the system, reseed its streams, restore it from ck or
// warm it (ck may be nil), then measure the timed region.
func simulate(cfg Config, mix workload.Mix, seed uint64, ck *Checkpoints) Result {
	simulations.Add(1)
	return ck.restoreOrWarm(newSystem(cfg, mix, seed)).Measure()
}

// newSystem builds a system and seeds its streams with seed.
func newSystem(cfg Config, mix workload.Mix, seed uint64) *System {
	s := Build(cfg, mix)
	s.seed = seed
	if seed != 0 {
		s.CPU.SetStreams(s.mix.StreamsSeeded(seed))
	}
	return s
}

// RunMix builds and runs in one step.
func RunMix(cfg Config, mix workload.Mix) Result {
	return simulate(cfg, mix, 0, nil)
}

// RunMixE is the hardened RunMix: it validates the configuration before
// building, and surfaces an abnormal end of run (watchdog, deadlock or
// audit violation) as an error alongside the partial result.
func RunMixE(cfg Config, mix workload.Mix) (Result, error) {
	return RunSeededCkptE(cfg, mix, 0, nil)
}

// RunSeeded runs the mix with a run-level stream seed (seed 0 equals RunMix).
func RunSeeded(cfg Config, mix workload.Mix, seed uint64) Result {
	return simulate(cfg, mix, seed, nil)
}

// ReplicateParallel runs the mix over n seeds, fanned out across up to
// parallel workers (<= 0 selects GOMAXPROCS), and returns the per-seed
// values of metric plus their mean and (population) standard deviation —
// statistical confidence for any reported number. Each seed owns a private
// system, so the per-seed values — and therefore mean and std — are
// bit-identical to the serial run. An invalid configuration or an aborted
// replica returns its error (the lowest seed's, if several fail) instead
// of statistics over incomplete runs. With Config.Observe.Flight set, an
// aborted replica's error is an *obs.FlightError carrying its flight
// recording.
func ReplicateParallel(parallel int, cfg Config, mix workload.Mix, n int, metric func(Result) float64) (vals []float64, mean, std float64, err error) {
	vals, err = runner.MapE(parallel, n, func(seed int) (float64, error) {
		r, err := RunSeededCkptE(cfg, mix, uint64(seed), nil)
		if err != nil {
			if r.Flight.Len() > 0 {
				err = &obs.FlightError{Flight: r.Flight, Err: err}
			}
			return 0, err
		}
		return metric(r), nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	mean = stats.Mean(vals)
	for _, v := range vals {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(vals)))
	return vals, mean, std, nil
}

// AloneIPC measures a workload's single-core IPC on the given configuration
// (the weight denominators of weighted speedup). The returned value is for
// one copy of the spec running alone.
func AloneIPC(cfg Config, spec workload.Spec) float64 {
	cfg.CPU.Cores = 1
	mix := workload.Mix{Name: spec.Name + "-alone", Specs: []workload.Spec{spec}}
	return simulate(cfg, mix, 0, nil).Cores[0].IPC()
}

// aloneFingerprint returns a complete textual key of every configuration
// field that can influence a single-core alone run. It must be exhaustive:
// the memo it keys is shared by every figure across a whole process, so two
// configurations may only collide when the alone simulation they describe
// is genuinely identical. Cores is normalized (AloneIPC forces one core)
// and the two pointer fields are dereferenced — with the DAPOverride's
// Backlog hook excluded, since that is injected per-system at Build time —
// so that equal configurations format to equal keys.
func aloneFingerprint(cfg Config) string {
	cfg.CPU.Cores = 1
	return cfgKey(cfg)
}

// cfgKey renders every behavior-affecting configuration field into one
// textual key, dereferencing the pointer fields (with the DAPOverride's
// per-system Backlog hook excluded) so equal configurations format to
// equal keys. The Observe block is left out: observers change no result,
// so turning one on must not split a memo, store or fingerprint key.
func cfgKey(cfg Config) string {
	cfg.Observe = Observe{}
	var dapOv, faults string
	if cfg.DAPOverride != nil {
		d := *cfg.DAPOverride
		d.Backlog = nil
		dapOv = fmt.Sprintf("%+v", d)
	}
	if cfg.Faults != nil {
		faults = fmt.Sprintf("%+v", *cfg.Faults)
	}
	cfg.DAPOverride = nil
	cfg.Faults = nil
	return fmt.Sprintf("%+v|%s|%s", cfg, dapOv, faults)
}

// Fingerprint condenses a configuration into a short stable hex token —
// the same field coverage as the alone-run memo key, hashed down for
// display. dapsim stamps it on every metrics and decision export so an
// artifact can be traced back to the exact configuration that produced
// it: two files carry the same fingerprint if and only if their
// configurations were identical, observers aside.
func Fingerprint(cfg Config) string {
	h := fnv.New64a()
	io.WriteString(h, cfgKey(cfg))
	return fmt.Sprintf("%016x", h.Sum64())
}

// memo is a single-flight memo: the first caller of a key runs build, and
// every concurrent caller of the same key blocks on the entry's Once and
// shares its result, so no value is ever built twice. The zero memo is
// ready to use.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (m *memo[V]) get(key string, build func() (V, error)) (V, error) {
	m.mu.Lock()
	e := m.m[key]
	if e == nil {
		if m.m == nil {
			m.m = make(map[string]*memoEntry[V])
		}
		e = new(memoEntry[V])
		m.m[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}

// drop forgets key, so the next get builds it again.
func (m *memo[V]) drop(key string) {
	m.mu.Lock()
	delete(m.m, key)
	m.mu.Unlock()
}

// aloneMemo memoizes alone IPCs per (config fingerprint, workload), so no
// alone simulation ever runs twice — neither within one figure nor across
// the figures of a whole cmd/figures sweep.
type aloneMemo struct{ ipc memo[float64] }

// alone is the process-wide memo. Sharing is safe because AloneIPC is a
// pure function of (configuration, spec): the memoized value is identical
// no matter which figure — or which worker goroutine — computes it first.
var alone = new(aloneMemo)

func (a *aloneMemo) get(cfg Config, spec workload.Spec) float64 {
	v, _ := a.ipc.get(spec.Name+"\x00"+aloneFingerprint(cfg), func() (float64, error) {
		return AloneIPC(cfg, spec), nil
	})
	return v
}

// weightedSpeedup computes a run's weighted speedup using alone IPCs from
// the memo, measured on cfgWeights (the figure's base configuration).
func (a *aloneMemo) weightedSpeedup(r Result, cfgWeights Config, mix workload.Mix) float64 {
	aloneIPCs := make([]float64, len(r.Cores))
	specs := resize(mix.Specs, len(r.Cores))
	for i := range aloneIPCs {
		aloneIPCs[i] = a.get(cfgWeights, specs[i])
	}
	return r.WeightedSpeedup(aloneIPCs)
}
