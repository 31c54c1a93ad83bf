package harness

import (
	"fmt"

	"dap/internal/cache"

	"dap/internal/core"
	"dap/internal/dram"
	"dap/internal/mem"
	"dap/internal/runner"
	"dap/internal/stats"
	"dap/internal/workload"
)

// Options scale the experiments: Quick shortens runs for tests and
// `figures -quick`; without it the drivers run full length.
type Options struct {
	Quick bool
	// Parallel caps the number of simulations a driver runs concurrently
	// (0 = GOMAXPROCS, 1 = strictly serial, the -j knob of cmd/figures).
	// Every simulation owns a private engine and results are assembled in
	// submission order, so a figure produced at any Parallel setting is
	// bit-identical to the serial one.
	Parallel int

	// Ckpt, when non-nil, resumes every driver simulation from a shared
	// warmup checkpoint: all policy/DRAM variants of the same (mix, arch,
	// warmup, seed) prefix restore from one snapshot, built single-flight
	// by whichever variant gets there first. Results are bit-identical to
	// running with Ckpt nil; only the wall clock changes.
	Ckpt *Checkpoints

	// Sampled switches every driver simulation to SMARTS interval sampling
	// (Config.Sampled): the timed region shrinks to a train of measured
	// intervals, so the figure becomes a confidence-interval-backed
	// estimate produced in a fraction of the detailed-simulation time.
	// Unlike Ckpt this trades exactness for speed; leave it off when the
	// figure must be bit-exact.
	Sampled bool

	// Decisions switches every driver simulation to partitioner decision
	// recording (Config.Observe.Decisions): each run then carries its
	// per-window optimality-gap series in Result.Decisions. Read-only,
	// bit-identity preserving; FigGap forces it on regardless of this flag.
	Decisions bool

	// tiny shrinks runs far below Quick so in-package tests can afford to
	// execute whole drivers repeatedly (e.g. the parallel-vs-serial
	// determinism sweep). Deliberately unexported: figures produced at this
	// scale are statistically meaningless.
	tiny bool
}

// run executes one driver simulation, through the warmup-checkpoint cache
// when the options carry one.
func (o Options) run(cfg Config, mix workload.Mix) Result {
	if o.Ckpt != nil {
		return RunMixCkpt(cfg, mix, o.Ckpt)
	}
	return RunMix(cfg, mix)
}

func (o Options) base() Config {
	var c Config
	switch {
	case o.tiny:
		c = Quick()
		c.WarmAccesses = 40_000
		c.MeasureInstr = 80_000
	case o.Quick:
		c = Quick()
	default:
		c = Default()
	}
	c.Sampled = o.Sampled
	c.Observe.Decisions = o.Decisions
	return c
}

// labeled pairs a configuration with its series label.
type labeled struct {
	label string
	cfg   Config
}

// mixNames extracts the x-axis labels.
func mixNames(mixes []workload.Mix) []string {
	out := make([]string, len(mixes))
	for i, m := range mixes {
		out[i] = m.Name
	}
	return out
}

func sensitiveMixes(cores int) []workload.Mix {
	var out []workload.Mix
	for _, s := range workload.Sensitive() {
		out = append(out, workload.RateMix(s, cores))
	}
	return out
}

// runMixes fans RunMix out across the worker pool, one simulation per mix,
// and returns the results in mix order.
func runMixes(o Options, cfg Config, mixes []workload.Mix) []Result {
	return runner.Map(o.Parallel, len(mixes), func(i int) Result {
		return o.run(cfg, mixes[i])
	})
}

// nws runs every (config, mix) pair and returns normalized weighted speedup
// series: WS(config)/WS(base) per mix, weighted by alone IPCs measured on
// weightCfg. All (1+len(alts))*len(mixes) simulations fan out across one
// worker pool; the alone-IPC denominators come from the process-wide
// single-flight memo, so they are simulated at most once per process.
func nws(o Options, mixes []workload.Mix, base Config, alts []labeled, weightCfg Config) []Series {
	cfgs := make([]Config, 0, 1+len(alts))
	cfgs = append(cfgs, base)
	for _, alt := range alts {
		cfgs = append(cfgs, alt.cfg)
	}
	// ws[ci*len(mixes)+mi] is the weighted speedup of cfgs[ci] on mixes[mi]
	ws := runner.Map(o.Parallel, len(cfgs)*len(mixes), func(j int) float64 {
		ci, mi := j/len(mixes), j%len(mixes)
		r := o.run(cfgs[ci], mixes[mi])
		return alone.weightedSpeedup(r, weightCfg, mixes[mi])
	})
	baseWS := ws[:len(mixes)]
	var out []Series
	for ai, alt := range alts {
		s := Series{Label: alt.label, Names: mixNames(mixes), SummaryKind: "GMEAN"}
		altWS := ws[(ai+1)*len(mixes):]
		for i := range mixes {
			v := 0.0
			if baseWS[i] > 0 {
				v = altWS[i] / baseWS[i]
			}
			s.Values = append(s.Values, v)
		}
		s.Summary = stats.GeoMean(s.Values)
		out = append(out, s)
	}
	return out
}

// Fig01 reproduces Figure 1: delivered bandwidth against target hit rate for
// the HBM DRAM cache and the eDRAM cache.
func Fig01(o Options) Figure {
	dur := mem.Cycle(4_000_000)
	if o.Quick {
		dur = 800_000
	}
	if o.tiny {
		dur = 200_000
	}
	names := make([]string, len(Figure1HitRates))
	for i, h := range Figure1HitRates {
		names[i] = fmt.Sprintf("%.0f%%", h*100)
	}
	// one kernel simulation per (architecture, hit rate) point
	points := runner.Map(o.Parallel, 2*len(Figure1HitRates), func(j int) float64 {
		arch, h := KernelArch(j/len(Figure1HitRates)), Figure1HitRates[j%len(Figure1HitRates)]
		return BandwidthKernel(arch, h, 256, dur).DeliveredGBps
	})
	dramS := Series{Label: "DRAM$", Names: names, Values: points[:len(Figure1HitRates)], SummaryKind: ""}
	edramS := Series{Label: "eDRAM$", Names: names, Values: points[len(Figure1HitRates):]}
	return Figure{
		ID:     "Fig. 1",
		Title:  "Delivered bandwidth (GB/s) vs. memory-side cache hit rate",
		Notes:  "DRAM$ saturates near the cache bandwidth past ~70% hits; eDRAM$ peaks mid-range and falls to its read-channel bandwidth at 100%",
		Series: []Series{dramS, edramS},
	}
}

// Fig02 reproduces Figure 2: doubling the eDRAM cache from 256 MB to 512 MB
// (scaled 32 MiB -> 64 MiB): weighted speedup and drop in miss rate.
func Fig02(o Options) Figure {
	small := o.base()
	small.Arch = SectoredEDRAM
	big := small
	big.EDRAM.CapacityBytes = small.EDRAM.CapacityBytes * 2

	mixes := sensitiveMixes(small.CPU.Cores)
	speed := nws(o, mixes, small, []labeled{{"512MB/256MB", big}}, small)[0]
	speed.Label = "speedup"

	rss := runMixes(o, small, mixes)
	rbs := runMixes(o, big, mixes)
	drop := Series{Label: "missdrop%", Names: mixNames(mixes), SummaryKind: "MEAN"}
	for i := range mixes {
		drop.Values = append(drop.Values, 100*(rbs[i].MemSide.HitRatio()-rss[i].MemSide.HitRatio()))
	}
	drop.Summary = stats.Mean(drop.Values)
	return Figure{
		ID:     "Fig. 2",
		Title:  "512 MB vs 256 MB eDRAM cache: weighted speedup and miss-rate drop (pp)",
		Series: []Series{speed, drop},
	}
}

// Fig04 reproduces Figure 4: weighted speedup from doubling the DRAM cache
// bandwidth, plus the baseline L3 MPKI of every snippet.
func Fig04(o Options) Figure {
	base := o.base()
	double := base
	double.Sectored.Array = dram.HBM204()

	var mixes []workload.Mix
	for _, s := range workload.All() {
		mixes = append(mixes, workload.RateMix(s, base.CPU.Cores))
	}
	speed := nws(o, mixes, base, []labeled{{"2x-BW", double}}, base)[0]

	rs := runMixes(o, base, mixes)
	mpki := Series{Label: "L3-MPKI", Names: mixNames(mixes), SummaryKind: "MEAN"}
	for _, r := range rs {
		sum := 0.0
		for i := range r.Cores {
			sum += r.Cores[i].MPKI()
		}
		mpki.Values = append(mpki.Values, sum/float64(len(r.Cores)))
	}
	mpki.Summary = stats.Mean(mpki.Values)
	return Figure{
		ID:     "Fig. 4",
		Title:  "Speedup from doubling DRAM cache bandwidth; baseline L3 MPKI",
		Series: []Series{speed, mpki},
	}
}

// Fig05 reproduces Figure 5: the benefit of the SRAM tag cache and its miss
// ratio.
func Fig05(o Options) Figure {
	with := o.base()
	without := with
	without.Sectored.TagCacheEntries = 0

	mixes := sensitiveMixes(with.CPU.Cores)
	speed := nws(o, mixes, without, []labeled{{"tagcache", with}}, without)[0]

	rs := runMixes(o, with, mixes)
	miss := Series{Label: "tagmiss", Names: mixNames(mixes), SummaryKind: "MEAN"}
	for _, r := range rs {
		miss.Values = append(miss.Values, r.MemSide.TagCacheMissRatio())
	}
	miss.Summary = stats.Mean(miss.Values)
	return Figure{
		ID:           "Fig. 5",
		Title:        "Weighted speedup with a tag cache; tag cache miss ratio",
		PaperSummary: 1.16,
		Series:       []Series{speed, miss},
	}
}

// Fig06 reproduces Figure 6: DAP's weighted speedup on the sectored DRAM
// cache and the normalized L3 read-miss latency.
func Fig06(o Options) Figure {
	base := o.base()
	dapCfg := base
	dapCfg.Policy = DAP

	mixes := sensitiveMixes(base.CPU.Cores)
	speed := nws(o, mixes, base, []labeled{{"DAP", dapCfg}}, base)[0]

	rbs := runMixes(o, base, mixes)
	rds := runMixes(o, dapCfg, mixes)
	lat := Series{Label: "norm-lat", Names: mixNames(mixes), SummaryKind: "MEAN"}
	for i := range mixes {
		v := 0.0
		if l := rbs[i].AvgL3ReadMissLatency(); l > 0 {
			v = rds[i].AvgL3ReadMissLatency() / l
		}
		lat.Values = append(lat.Values, v)
	}
	lat.Summary = stats.Mean(lat.Values)
	return Figure{
		ID:           "Fig. 6",
		Title:        "DAP on the sectored DRAM cache: speedup and normalized L3 read-miss latency",
		PaperSummary: 1.152,
		Series:       []Series{speed, lat},
	}
}

// Fig07 reproduces Figure 7: the mix of DAP technique applications.
func Fig07(o Options) Figure {
	dapCfg := o.base()
	dapCfg.Policy = DAP
	mixes := sensitiveMixes(dapCfg.CPU.Cores)
	names := mixNames(mixes)
	fwb := Series{Label: "FWB", Names: names, SummaryKind: "MEAN"}
	wb := Series{Label: "WB", Names: names}
	ifrm := Series{Label: "IFRM", Names: names}
	sfrm := Series{Label: "SFRM", Names: names}
	waste := Series{Label: "SFRM-waste", Names: names}
	for _, r := range runMixes(o, dapCfg, mixes) {
		f, w, i, s := r.DAP.Fractions()
		fwb.Values = append(fwb.Values, f)
		wb.Values = append(wb.Values, w)
		ifrm.Values = append(ifrm.Values, i)
		sfrm.Values = append(sfrm.Values, s)
		waste.Values = append(waste.Values, r.MemSide.SpecWastedRatio())
	}
	fwb.Summary = stats.Mean(fwb.Values)
	wb.Summary, wb.SummaryKind = stats.Mean(wb.Values), "MEAN"
	ifrm.Summary, ifrm.SummaryKind = stats.Mean(ifrm.Values), "MEAN"
	sfrm.Summary, sfrm.SummaryKind = stats.Mean(sfrm.Values), "MEAN"
	waste.Summary, waste.SummaryKind = stats.Mean(waste.Values), "MEAN"
	return Figure{
		ID:     "Fig. 7",
		Title:  "Share of DAP decisions by technique",
		Notes:  "paper means: FWB 23%, WB 40%, IFRM 12%, SFRM 25%; SFRM-waste is the dirty-hit fraction of speculative reads",
		Series: []Series{fwb, wb, ifrm, sfrm, waste},
	}
}

// Fig08 reproduces Figure 8: main-memory CAS fraction (baseline vs DAP) and
// the memory-side cache hit ratio (baseline, FWB+WB, full DAP).
func Fig08(o Options) Figure {
	base := o.base()
	fw := base
	fw.Policy = DAPFWBWB
	dapCfg := base
	dapCfg.Policy = DAP

	mixes := sensitiveMixes(base.CPU.Cores)
	names := mixNames(mixes)
	casB := Series{Label: "CAS-base", Names: names, SummaryKind: "MEAN"}
	casD := Series{Label: "CAS-dap", Names: names, SummaryKind: "MEAN"}
	hitB := Series{Label: "hit-base", Names: names, SummaryKind: "MEAN"}
	hitF := Series{Label: "hit-fwbwb", Names: names, SummaryKind: "MEAN"}
	hitD := Series{Label: "hit-dap", Names: names, SummaryKind: "MEAN"}
	rbs := runMixes(o, base, mixes)
	rfs := runMixes(o, fw, mixes)
	rds := runMixes(o, dapCfg, mixes)
	for i := range mixes {
		casB.Values = append(casB.Values, rbs[i].MainMemCASFraction())
		casD.Values = append(casD.Values, rds[i].MainMemCASFraction())
		hitB.Values = append(hitB.Values, rbs[i].MemSide.HitRatio())
		hitF.Values = append(hitF.Values, rfs[i].MemSide.HitRatio())
		hitD.Values = append(hitD.Values, rds[i].MemSide.HitRatio())
	}
	for _, s := range []*Series{&casB, &casD, &hitB, &hitF, &hitD} {
		s.Summary = stats.Mean(s.Values)
	}
	return Figure{
		ID:     "Fig. 8",
		Title:  "Main-memory CAS fraction and memory-side cache hit ratio",
		Notes:  "optimal CAS fraction is B_MM/(B_MM+B_MS$) = 0.27; paper means: CAS 9%->25%, hit 89%->80% (FWB+WB) ->73% (DAP)",
		Series: []Series{casB, casD, hitB, hitF, hitD},
	}
}

// Tab01 reproduces Table I: sensitivity of the mean DAP speedup to the
// window size W and the bandwidth-efficiency assumption E.
func Tab01(o Options) Figure {
	base := o.base()
	mixes := sensitiveMixes(base.CPU.Cores)

	var alts []labeled
	for _, w := range []mem.Cycle{32, 64, 128} {
		cfg := base
		cfg.Policy = DAP
		dc := dapConfigFor(&cfg)
		dc.Window = w
		cfg.DAPOverride = &dc
		alts = append(alts, labeled{fmt.Sprintf("W=%d", w), cfg})
	}
	for _, e := range []float64{0.50, 0.75, 1.00} {
		cfg := base
		cfg.Policy = DAP
		dc := dapConfigFor(&cfg)
		dc.Efficiency = e
		cfg.DAPOverride = &dc
		alts = append(alts, labeled{fmt.Sprintf("E=%.2f", e), cfg})
	}
	series := nws(o, mixes, base, alts, base)
	return Figure{
		ID:     "Table I",
		Title:  "DAP speedup vs window size W (E=0.75) and efficiency E (W=64)",
		Notes:  "paper: W 32/64/128 -> 1.13/1.15/1.14; E 0.50/0.75/1.00 -> 1.14/1.15/1.12",
		Series: series,
	}
}

// Fig09 reproduces Figure 9: sensitivity to main-memory latency and
// bandwidth. Each series is DAP normalized to the baseline with the same
// main memory.
func Fig09(o Options) Figure {
	mems := []struct {
		label string
		cfg   dram.Config
	}{
		{"DDR4-2400", dram.DDR4_2400()},
		{"no-I/O", dram.DDR4_2400NoIO()},
		{"LPDDR4", dram.LPDDR4_2400()},
		{"DDR4-3200", dram.DDR4_3200()},
	}
	var series []Series
	for _, mm := range mems {
		base := o.base()
		base.MainMemory = mm.cfg
		dapCfg := base
		dapCfg.Policy = DAP
		mixes := sensitiveMixes(base.CPU.Cores)
		s := nws(o, mixes, base, []labeled{{mm.label, dapCfg}}, base)[0]
		series = append(series, s)
	}
	return Figure{
		ID:     "Fig. 9",
		Title:  "DAP speedup under different main-memory technologies",
		Notes:  "paper means: default 1.152, no-I/O 1.16, LPDDR4 1.08, DDR4-3200 higher than default",
		Series: series,
	}
}

// Fig10 reproduces Figure 10: sensitivity to DRAM cache capacity (top) and
// bandwidth (bottom). Each series normalizes DAP to the baseline with the
// same cache.
func Fig10(o Options) Figure {
	var series []Series
	for _, cap := range []int{32 * mem.MiB, 64 * mem.MiB, 128 * mem.MiB} {
		base := o.base()
		base.Sectored.CapacityBytes = cap
		dapCfg := base
		dapCfg.Policy = DAP
		mixes := sensitiveMixes(base.CPU.Cores)
		s := nws(o, mixes, base, []labeled{{fmt.Sprintf("%dMB", cap/mem.MiB), dapCfg}}, base)[0]
		series = append(series, s)
	}
	for _, arr := range []dram.Config{dram.HBM102(), dram.HBM128(), dram.HBM204()} {
		base := o.base()
		base.Sectored.Array = arr
		dapCfg := base
		dapCfg.Policy = DAP
		mixes := sensitiveMixes(base.CPU.Cores)
		s := nws(o, mixes, base, []labeled{{arr.Name, dapCfg}}, base)[0]
		series = append(series, s)
	}
	return Figure{
		ID:     "Fig. 10",
		Title:  "DAP speedup vs cache capacity (2/4/8 GB scaled) and bandwidth",
		Notes:  "paper: speedup grows with capacity; shrinks with cache bandwidth (15.2% at 102.4 -> 7% at 204.8)",
		Series: series,
	}
}

// Fig11 reproduces Figure 11: comparison with SBD, SBD-WT and BATMAN.
func Fig11(o Options) Figure {
	base := o.base()
	mk := func(p Policy) Config { c := base; c.Policy = p; return c }
	mixes := sensitiveMixes(base.CPU.Cores)
	series := nws(o, mixes, base, []labeled{
		{"SBD", mk(SBD)},
		{"SBD-WT", mk(SBDWT)},
		{"BATMAN", mk(BATMAN)},
		{"DAP", mk(DAP)},
	}, base)
	return Figure{
		ID:     "Fig. 11",
		Title:  "Related proposals vs DAP (normalized weighted speedup)",
		Notes:  "paper means: SBD 0.84, SBD-WT 1.055, BATMAN ~1.0, DAP 1.152",
		Series: series,
	}
}

// Fig12 reproduces Figure 12: DAP on the full 44-workload suite, grouped by
// category and sorted by speedup within each.
func Fig12(o Options) Figure {
	base := o.base()
	dapCfg := base
	dapCfg.Policy = DAP
	mixes := workload.AllMixes(base.CPU.Cores)
	s := nws(o, mixes, base, []labeled{{"DAP", dapCfg}}, base)[0]
	return Figure{
		ID:           "Fig. 12",
		Title:        "DAP across all 44 workloads (12 sensitive, 5 insensitive, 27 heterogeneous)",
		PaperSummary: 1.13,
		Series:       []Series{s},
	}
}

// Fig13 reproduces Figure 13: DAP on a sixteen-core system with an 8 GB
// (scaled 128 MB), 204.8 GB/s cache and DDR4-3200 memory.
func Fig13(o Options) Figure {
	base := o.base()
	base.CPU.Cores = 16
	base.CPU.L3Bytes = 16 * mem.MiB
	base.MainMemory = dram.DDR4_3200()
	base.Sectored.CapacityBytes = 128 * mem.MiB
	base.Sectored.Array = dram.HBM204()
	dapCfg := base
	dapCfg.Policy = DAP
	mixes := sensitiveMixes(base.CPU.Cores)
	s := nws(o, mixes, base, []labeled{{"DAP-16c", dapCfg}}, base)[0]
	return Figure{
		ID:           "Fig. 13",
		Title:        "DAP on a 16-core system",
		PaperSummary: 1.146,
		Series:       []Series{s},
	}
}

// Fig14 reproduces Figure 14: BEAR and DAP on the Alloy cache, plus the
// main-memory CAS fraction of each.
func Fig14(o Options) Figure {
	base := o.base()
	base.Arch = AlloyCache
	bear := base
	bear.Alloy.BEAR = true
	dapCfg := base
	dapCfg.Policy = DAP

	mixes := sensitiveMixes(base.CPU.Cores)
	series := nws(o, mixes, base, []labeled{
		{"Alloy+BEAR", bear},
		{"Alloy+DAP", dapCfg},
	}, base)

	names := mixNames(mixes)
	for _, v := range []struct {
		label string
		cfg   Config
	}{{"CAS-base", base}, {"CAS-bear", bear}, {"CAS-dap", dapCfg}} {
		s := Series{Label: v.label, Names: names, SummaryKind: "MEAN"}
		for _, r := range runMixes(o, v.cfg, mixes) {
			s.Values = append(s.Values, r.MainMemCASFraction())
		}
		s.Summary = stats.Mean(s.Values)
		series = append(series, s)
	}
	return Figure{
		ID:     "Fig. 14",
		Title:  "Alloy cache: BEAR vs DAP speedups and main-memory CAS fraction",
		Notes:  "paper means: BEAR 1.22, DAP 1.29; CAS fraction 13% (base), 15% (BEAR), 43% (DAP); optimal 36%",
		Series: series,
	}
}

// Fig15 reproduces Figure 15: DAP on 256 MB and 512 MB eDRAM caches
// (scaled 32/64 MiB), normalized to the 256 MB baseline, plus hit-rate
// deltas.
func Fig15(o Options) Figure {
	base := o.base()
	base.Arch = SectoredEDRAM
	dap256 := base
	dap256.Policy = DAP
	base512 := base
	base512.EDRAM.CapacityBytes *= 2
	dap512 := base512
	dap512.Policy = DAP

	mixes := sensitiveMixes(base.CPU.Cores)
	series := nws(o, mixes, base, []labeled{
		{"256MB+DAP", dap256},
		{"512MB", base512},
		{"512MB+DAP", dap512},
	}, base)

	names := mixNames(mixes)
	rbs := runMixes(o, base, mixes)
	for _, v := range []struct {
		label string
		cfg   Config
	}{{"dHit-256dap", dap256}, {"dHit-512", base512}, {"dHit-512dap", dap512}} {
		s := Series{Label: v.label, Names: names, SummaryKind: "MEAN"}
		for i, r := range runMixes(o, v.cfg, mixes) {
			s.Values = append(s.Values, r.MemSide.HitRatio()-rbs[i].MemSide.HitRatio())
		}
		s.Summary = stats.Mean(s.Values)
		series = append(series, s)
	}
	return Figure{
		ID:     "Fig. 15",
		Title:  "eDRAM cache: DAP at 256/512 MB and hit-rate change vs 256 MB baseline",
		Notes:  "paper: 256MB+DAP -9.5pp hits +7% perf; 512MB +4pp +2%; 512MB+DAP -6.5pp +11%",
		Series: series,
	}
}

// AblationCreditWidth sweeps the credit-counter saturation value.
func AblationCreditWidth(o Options) Figure {
	return ablateDAP(o, "credit cap", "cap", []int64{15, 63, 255, 4095}, func(dc *core.Config, v int64) {
		dc.CreditCap = v
	})
}

// AblationKApprox sweeps the precision of the hardware K approximation.
func AblationKApprox(o Options) Figure {
	return ablateDAP(o, "K denominator", "Kden", []int64{1, 2, 4, 64}, func(dc *core.Config, v int64) {
		dc.MaxKDen = v
	})
}

// AblationSFRMReserve sweeps the SFRM bandwidth reserve.
func AblationSFRMReserve(o Options) Figure {
	vals := []int64{40, 60, 80, 100}
	return ablateDAP(o, "SFRM reserve %", "SFRM%", vals, func(dc *core.Config, v int64) {
		dc.SFRMReserve = float64(v) / 100
	})
}

// AblationTechniques disables one DAP technique at a time.
func AblationTechniques(o Options) Figure {
	base := o.base()
	mixes := ablationMixes(o, base)
	mk := func(label string, f func(*core.Config)) labeled {
		cfg := base
		cfg.Policy = DAP
		dc := dapConfigFor(&cfg)
		f(&dc)
		cfg.DAPOverride = &dc
		return labeled{label, cfg}
	}
	series := nws(o, mixes, base, []labeled{
		mk("full", func(*core.Config) {}),
		mk("-FWB", func(d *core.Config) { d.Disable.FWB = true }),
		mk("-WB", func(d *core.Config) { d.Disable.WB = true }),
		mk("-IFRM", func(d *core.Config) { d.Disable.IFRM = true }),
		mk("-SFRM", func(d *core.Config) { d.Disable.SFRM = true }),
	}, base)
	return Figure{
		ID:     "Abl. T",
		Title:  "DAP with one technique disabled (normalized weighted speedup)",
		Series: series,
	}
}

// AblationLearning compares the paper's raw per-window learning against an
// exponentially smoothed (EWMA) variant.
func AblationLearning(o Options) Figure {
	base := o.base()
	mixes := ablationMixes(o, base)
	mk := func(label string, ewma bool) labeled {
		cfg := base
		cfg.Policy = DAP
		dc := dapConfigFor(&cfg)
		dc.EWMALearning = ewma
		cfg.DAPOverride = &dc
		return labeled{label, cfg}
	}
	return Figure{
		ID:     "Abl. L",
		Title:  "Window learning: raw windows (paper) vs EWMA smoothing",
		Series: nws(o, mixes, base, []labeled{mk("raw", false), mk("ewma", true)}, base),
	}
}

// AblationThreadAware compares plain IFRM with the Section IV-A thread-aware
// variant on heterogeneous mixes (where latency sensitivity differs across
// cores; rate mixes are homogeneous, so the variant is a no-op there).
func AblationThreadAware(o Options) Figure {
	base := o.base()
	n := 8
	if o.Quick {
		n = 4
	}
	mixes := workload.HeterogeneousMixes(base.CPU.Cores)[:n]
	plain := base
	plain.Policy = DAP
	aware := plain
	aware.ThreadAwareIFRM = true
	return Figure{
		ID:     "Abl. TA",
		Title:  "IFRM vs thread-aware IFRM on heterogeneous mixes",
		Series: nws(o, mixes, base, []labeled{{"IFRM", plain}, {"thread-aware", aware}}, base),
	}
}

// AblationReplacement compares sector replacement policies under DAP (the
// paper uses NRU with its states in on-die SRAM).
func AblationReplacement(o Options) Figure {
	base := o.base()
	mixes := ablationMixes(o, base)
	mk := func(label string, p cache.ReplPolicy) labeled {
		cfg := base
		cfg.Policy = DAP
		cfg.Sectored.Replacement = p
		return labeled{label, cfg}
	}
	return Figure{
		ID:    "Abl. R",
		Title: "Sector replacement policy under DAP (baseline uses NRU)",
		Series: nws(o, mixes, base, []labeled{
			mk("NRU", cache.NRU), mk("LRU", cache.LRU),
			mk("SRRIP", cache.SRRIP), mk("random", cache.Rand),
		}, base),
	}
}

// AblationFootprint measures the footprint prefetcher's contribution.
func AblationFootprint(o Options) Figure {
	base := o.base()
	mixes := ablationMixes(o, base)
	with := base
	with.Policy = DAP
	without := with
	without.Sectored.Footprint = false
	return Figure{
		ID:     "Abl. F",
		Title:  "DAP with and without the footprint prefetcher",
		Series: nws(o, mixes, base, []labeled{{"footprint", with}, {"none", without}}, base),
	}
}

// ablationMixes trims the workload list at quick scale so the ablation
// tables stay fast; full-length runs use all twelve sensitive mixes.
func ablationMixes(o Options, base Config) []workload.Mix {
	mixes := sensitiveMixes(base.CPU.Cores)
	if o.Quick {
		mixes = mixes[:6]
	}
	return mixes
}

// ablateDAP sweeps one DAP parameter over vals; what names it in the title
// and short, which fits a table column, labels each series.
func ablateDAP(o Options, what, short string, vals []int64, apply func(*core.Config, int64)) Figure {
	base := o.base()
	mixes := ablationMixes(o, base)
	var alts []labeled
	for _, v := range vals {
		cfg := base
		cfg.Policy = DAP
		dc := dapConfigFor(&cfg)
		apply(&dc, v)
		cfg.DAPOverride = &dc
		alts = append(alts, labeled{fmt.Sprintf("%s=%d", short, v), cfg})
	}
	return Figure{
		ID:     "Abl",
		Title:  "DAP sensitivity: " + what,
		Series: nws(o, mixes, base, alts, base),
	}
}

// Calibration profiles every rate-n workload on the sectored cache under
// the baseline and DAP: the numbers the synthetic specs are tuned against.
// Per workload it reports the mean per-core L3 MPKI, the memory-side hit
// ratio (baseline and DAP) and the baseline tag-cache miss ratio, aggregate
// IPC, both main-memory CAS fractions and DAP's technique shares; from the
// DAP run's decision records, as FigGap reads them, the recorded windows,
// the fraction that partitioned and the mean per-window demand A_MS$ and
// A_MM the solver saw (backlog included).
func Calibration(o Options) Figure {
	base := o.base()
	dapCfg := base
	dapCfg.Policy = DAP
	dapCfg.Observe.Decisions = true

	var mixes []workload.Mix
	for _, s := range workload.All() {
		mixes = append(mixes, workload.RateMix(s, base.CPU.Cores))
	}
	var series []Series
	for _, l := range []string{"MPKI", "hit-base", "hit-dap", "tagmiss", "IPC-base", "IPC-dap",
		"CAS-base", "CAS-dap", "FWB", "WB", "IFRM", "SFRM", "windows", "part-frac", "A_MS", "A_MM"} {
		series = append(series, Series{Label: l, Names: mixNames(mixes), SummaryKind: "MEAN"})
	}
	ipc := func(r Result) float64 {
		sum := 0.0
		for i := range r.Cores {
			sum += r.Cores[i].IPC()
		}
		return sum
	}
	rbs := runMixes(o, base, mixes)
	rds := runMixes(o, dapCfg, mixes)
	for i := range mixes {
		rb, rd := rbs[i], rds[i]
		mpki := 0.0
		for c := range rb.Cores {
			mpki += rb.Cores[c].MPKI() / float64(len(rb.Cores))
		}
		fwb, wb, ifrm, sfrm := rd.DAP.Fractions()
		recs := rd.Decisions.Records()
		var part, ams, amm float64
		for _, rec := range recs {
			if rec.Partitioned {
				part++
			}
			ams += float64(rec.Counts.AMS())
			amm += float64(rec.Counts.AMM)
		}
		if n := float64(len(recs)); n > 0 {
			part, ams, amm = part/n, ams/n, amm/n
		}
		for j, v := range []float64{mpki, rb.MemSide.HitRatio(), rd.MemSide.HitRatio(),
			rb.MemSide.TagCacheMissRatio(), ipc(rb), ipc(rd), rb.MainMemCASFraction(),
			rd.MainMemCASFraction(), fwb, wb, ifrm, sfrm, float64(len(recs)), part, ams, amm} {
			series[j].Values = append(series[j].Values, v)
		}
	}
	for i := range series {
		series[i].Summary = stats.Mean(series[i].Values)
	}
	return Figure{
		ID:     "Calib.",
		Title:  "Per-workload profile on the sectored cache, baseline vs DAP",
		Notes:  "IPC sums the cores; FWB..SFRM are DAP's technique shares; windows..A_MM come from the DAP run's decision records (A_MS = A_MS$, backlog included)",
		Series: series,
	}
}
