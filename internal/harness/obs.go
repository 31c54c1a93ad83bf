package harness

import (
	"dap/internal/mem"
	"dap/internal/obs"
	"dap/internal/stats"
	"dap/internal/workload"
)

// arm begins the timed region's observation and guards, right after
// CPU.Start: it starts the sampler and the flight recorder, then arms
// the watchdog, the auditor (Config.Audit) and any planned credit
// corruption, in that order, so the events they schedule keep one
// sequence. Measure calls it once and ends with finishObservers.
func (s *System) arm(limit mem.Cycle) {
	cfg := s.Cfg
	if s.metrics != nil {
		s.metrics.Start()
	}
	if s.flight != nil {
		// 64 samples per watchdog deadline keep a stall's run-up dense in
		// the ring.
		every := 1 << 16
		if wd := cfg.watchdogEvents(); wd > 0 {
			every = max(wd/64, 1)
		}
		s.Eng.SetFlightSampler(every, s.flightSample)
		s.flight.Addf(s.Eng.Now(), "measure-start mix=%s arch=%s policy=%s horizon=%d events",
			s.mix.Name, cfg.Arch, cfg.Policy, limit)
	}
	s.Eng.SetWatchdog(cfg.watchdogEvents(), s.CPU.ProgressFingerprint, s.snapshot)
	if cfg.Audit {
		s.startAudit()
	}
	if s.inj != nil && s.dap != nil {
		s.inj.ArmCreditFault(s.Eng.After, s.dap)
	}
}

// finishObservers ends a timed region's observation once r holds its
// statistics and abort: it stops the sampler, closes the flight recording
// and hands every observer to r.
func (s *System) finishObservers(r *Result) {
	if s.metrics != nil {
		s.metrics.Stop()
	}
	if s.flight != nil {
		if r.Abort != nil {
			s.flight.Addf(s.Eng.Now(), "run-aborted pending=%d", s.Eng.Pending())
		} else {
			s.flight.Add(s.Eng.Now(), "run-complete")
		}
	}
	r.Metrics, r.Trace, r.Flight, r.Decisions = s.metrics, s.trace, s.flight, s.decRec
	r.Breakdown = s.trace.Breakdown()
}

// registerMetrics wires every observable subsystem into the sampler. All
// probes are read-only; registration order fixes the CSV column order.
func (s *System) registerMetrics() {
	m := s.metrics
	if s.dap != nil {
		s.dap.RegisterMetrics(m)
	}
	s.MM.RegisterMetrics(m, "mm")
	switch cache := s.devices()[1:]; len(cache) {
	case 1:
		cache[0].RegisterMetrics(m, "ms")
	case 2: // separate read and write channel sets
		cache[0].RegisterMetrics(m, "ms.rd")
		cache[1].RegisterMetrics(m, "ms.wr")
	}
	st := s.Ctrl.MSStats()
	m.Gauge("ms.hit_ratio", obs.WindowedRatio(
		func() uint64 { return st.ReadHits + st.WriteHits },
		func() uint64 { return st.ReadHits + st.ReadMisses + st.WriteHits + st.WriteMisses },
	))
	m.Gauge("ms.tagmiss_ratio", obs.WindowedRatio(
		func() uint64 { return st.TagCacheMisses },
		func() uint64 { return st.TagCacheHits + st.TagCacheMisses },
	))
	s.CPU.RegisterMetrics(m)
}

// FigBreakdown is an observability-layer driver (not a paper figure): it
// runs DAP with full tracing on the bandwidth-sensitive mixes and tabulates
// the mean phase latencies of L3 misses by serving source — where cycles go
// when a miss is served by the cache array versus main memory.
func FigBreakdown(o Options) Figure {
	cfg := o.base()
	cfg.Policy = DAP
	cfg.Observe.TraceEvery = 1

	mixes := sensitiveMixes(cfg.CPU.Cores)
	if o.Quick && len(mixes) > 4 {
		mixes = mixes[:4]
	}
	rs := grid(o, []Config{cfg}, mixes)[0]
	names := mixNames(mixes)
	phase := func(label string, src int, f func(stats.PhaseLatency) float64) Series {
		return meanSeries(label, names, func(m int) float64 { return f(rs[m].Breakdown.BySource(src)) })
	}
	queue := func(p stats.PhaseLatency) float64 { return p.Queue.Mean() }
	meta := func(p stats.PhaseLatency) float64 { return p.Meta.Mean() }
	serve := func(p stats.PhaseLatency) float64 { return p.Service.Mean() }
	return Figure{
		ID:    "Obs. 1",
		Title: "L3-miss latency breakdown by serving source (cycles)",
		Notes: "q = serving-device queue wait, meta = tag/metadata probe, serve = data service remainder",
		Series: []Series{
			phase("q-ms$", stats.BDSrcCache, queue), phase("meta-ms$", stats.BDSrcCache, meta),
			phase("serve-ms$", stats.BDSrcCache, serve),
			phase("q-mm", stats.BDSrcMain, queue), phase("meta-mm", stats.BDSrcMain, meta),
			phase("serve-mm", stats.BDSrcMain, serve),
		},
	}
}

// traceableMix returns a small mix suitable for trace demos and tests.
func traceableMix(cores int) workload.Mix {
	spec, ok := workload.ByName("mcf")
	if !ok {
		spec = workload.Sensitive()[0]
	}
	return workload.RateMix(spec, cores)
}
