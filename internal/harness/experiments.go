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

	// tiny shrinks runs far below Quick so in-package tests can afford to
	// execute whole drivers repeatedly (e.g. the parallel-vs-serial
	// determinism sweep). Deliberately unexported: figures produced at this
	// scale are statistically meaningless.
	tiny bool
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
	return c
}

// grid simulates every configuration on every mix and returns rs, where
// rs[c][m] is the result of cfgs[c] on mixes[m]. Configurations that are
// one simulation — equal cfgKey and equal Observe — run once per mix and
// share one row, so a driver lists each configuration where its series need
// it and pays for it once. The distinct points fan out across o.Parallel
// workers and resume from o.Ckpt when it is set.
func grid(o Options, cfgs []Config, mixes []workload.Mix) [][]Result {
	type key struct {
		cfg string
		obs Observe
	}
	row := make([]int, len(cfgs)) // cfgs[c] reads distinct row row[c]
	var distinct []Config
	seen := map[key]int{}
	for c, cfg := range cfgs {
		k := key{cfgKey(cfg), cfg.Observe}
		r, ok := seen[k]
		if !ok {
			r = len(distinct)
			seen[k] = r
			distinct = append(distinct, cfg)
		}
		row[c] = r
	}
	n := len(mixes)
	flat := runner.Map(o.Parallel, len(distinct)*n, func(j int) Result {
		return simulate(distinct[j/n], mixes[j%n], 0, o.Ckpt)
	})
	rs := make([][]Result, len(cfgs))
	for c, r := range row {
		rs[c] = flat[r*n : (r+1)*n : (r+1)*n] // capped: an append cannot spill into the next row
	}
	return rs
}

// speedup is the GMEAN series of normalized weighted speedup over the
// mixes: WS(alt)/WS(base) per mix, both weighted by alone IPCs measured on
// the base run's configuration. The alone IPCs come from the process-wide
// memo; they are looked up across o.Parallel workers, so the ones a cold
// memo lacks are simulated in parallel too.
func speedup(o Options, label string, mixes []workload.Mix, base, alt []Result) Series {
	n := len(mixes)
	ws := runner.Map(o.Parallel, 2*n, func(j int) float64 {
		m, row := j%n, base
		if j >= n {
			row = alt
		}
		return alone.weightedSpeedup(row[m], base[m].Config, mixes[m])
	})
	s := Series{Label: label, Names: mixNames(mixes), SummaryKind: "GMEAN"}
	for m := range mixes {
		v := 0.0
		if ws[m] > 0 {
			v = ws[n+m] / ws[m]
		}
		s.Values = append(s.Values, v)
	}
	s.Summary = stats.GeoMean(s.Values)
	return s
}

// speedups is one speedup series per grid row after the first, each over
// rs[0] and labeled by labels in row order.
func speedups(o Options, labels []string, mixes []workload.Mix, rs [][]Result) []Series {
	out := make([]Series, len(labels))
	for i, l := range labels {
		out[i] = speedup(o, l, mixes, rs[0], rs[i+1])
	}
	return out
}

// meanSeries is the MEAN series of f(i) over the x-axis names.
func meanSeries(label string, names []string, f func(i int) float64) Series {
	s := Series{Label: label, Names: names, SummaryKind: "MEAN"}
	for i := range names {
		s.Values = append(s.Values, f(i))
	}
	s.Summary = stats.Mean(s.Values)
	return s
}

// withPolicy returns cfg under policy p.
func withPolicy(cfg Config, p Policy) Config {
	cfg.Policy = p
	return cfg
}

// withDAP returns cfg under DAP with its architecture's DAP parameters
// edited by f (Table I and the ablations).
func withDAP(cfg Config, f func(*core.Config)) Config {
	cfg.Policy = DAP
	dc := dapConfigFor(&cfg)
	f(&dc)
	cfg.DAPOverride = &dc
	return cfg
}

// dapSpeedups runs every base configuration beside its DAP twin and returns
// one series per base: DAP's speedup over the baseline with the same
// system, labeled by labels.
func dapSpeedups(o Options, labels []string, bases []Config, mixes []workload.Mix) []Series {
	var cfgs []Config
	for _, b := range bases {
		cfgs = append(cfgs, b, withPolicy(b, DAP))
	}
	rs := grid(o, cfgs, mixes)
	out := make([]Series, len(bases))
	for i, l := range labels {
		out[i] = speedup(o, l, mixes, rs[2*i], rs[2*i+1])
	}
	return out
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

// rateMixes is the rate-n mix of every snippet, sensitive ones first.
func rateMixes(cores int) []workload.Mix {
	var out []workload.Mix
	for _, s := range workload.All() {
		out = append(out, workload.RateMix(s, cores))
	}
	return out
}

// techShare is the share of a run's DAP decisions taken by technique k
// (0 FWB, 1 WB, 2 IFRM, 3 SFRM).
func techShare(r Result, k int) float64 {
	var f [4]float64
	f[0], f[1], f[2], f[3] = r.DAP.Fractions()
	return f[k]
}

// meanMPKI is a run's mean per-core L3 MPKI.
func meanMPKI(r Result) float64 {
	sum := 0.0
	for i := range r.Cores {
		sum += r.Cores[i].MPKI()
	}
	return sum / float64(len(r.Cores))
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
	big.EDRAM.CapacityBytes *= 2

	mixes := sensitiveMixes(small.CPU.Cores)
	rs := grid(o, []Config{small, big}, mixes)
	return Figure{
		ID:    "Fig. 2",
		Title: "512 MB vs 256 MB eDRAM cache: weighted speedup and miss-rate drop (pp)",
		Series: []Series{
			speedup(o, "speedup", mixes, rs[0], rs[1]),
			meanSeries("missdrop%", mixNames(mixes), func(m int) float64 {
				return 100 * (rs[1][m].MemSide.HitRatio() - rs[0][m].MemSide.HitRatio())
			}),
		},
	}
}

// Fig04 reproduces Figure 4: weighted speedup from doubling the DRAM cache
// bandwidth, plus the baseline L3 MPKI of every snippet.
func Fig04(o Options) Figure {
	base := o.base()
	double := base
	double.Sectored.Array = dram.HBM204()

	mixes := rateMixes(base.CPU.Cores)
	rs := grid(o, []Config{base, double}, mixes)
	return Figure{
		ID:    "Fig. 4",
		Title: "Speedup from doubling DRAM cache bandwidth; baseline L3 MPKI",
		Series: []Series{
			speedup(o, "2x-BW", mixes, rs[0], rs[1]),
			meanSeries("L3-MPKI", mixNames(mixes), func(m int) float64 { return meanMPKI(rs[0][m]) }),
		},
	}
}

// Fig05 reproduces Figure 5: the benefit of the SRAM tag cache and its miss
// ratio.
func Fig05(o Options) Figure {
	with := o.base()
	without := with
	without.Sectored.TagCacheEntries = 0

	mixes := sensitiveMixes(with.CPU.Cores)
	rs := grid(o, []Config{without, with}, mixes)
	return Figure{
		ID:           "Fig. 5",
		Title:        "Weighted speedup with a tag cache; tag cache miss ratio",
		PaperSummary: 1.16,
		Series: []Series{
			speedup(o, "tagcache", mixes, rs[0], rs[1]),
			meanSeries("tagmiss", mixNames(mixes), func(m int) float64 { return rs[1][m].MemSide.TagCacheMissRatio() }),
		},
	}
}

// Fig06 reproduces Figure 6: DAP's weighted speedup on the sectored DRAM
// cache and the normalized L3 read-miss latency.
func Fig06(o Options) Figure {
	base := o.base()
	mixes := sensitiveMixes(base.CPU.Cores)
	rs := grid(o, []Config{base, withPolicy(base, DAP)}, mixes)
	return Figure{
		ID:           "Fig. 6",
		Title:        "DAP on the sectored DRAM cache: speedup and normalized L3 read-miss latency",
		PaperSummary: 1.152,
		Series: []Series{
			speedup(o, "DAP", mixes, rs[0], rs[1]),
			meanSeries("norm-lat", mixNames(mixes), func(m int) float64 {
				if l := rs[0][m].AvgL3ReadMissLatency(); l > 0 {
					return rs[1][m].AvgL3ReadMissLatency() / l
				}
				return 0
			}),
		},
	}
}

// Fig07 reproduces Figure 7: the mix of DAP technique applications.
func Fig07(o Options) Figure {
	dapCfg := withPolicy(o.base(), DAP)
	mixes := sensitiveMixes(dapCfg.CPU.Cores)
	rs := grid(o, []Config{dapCfg}, mixes)[0]
	names := mixNames(mixes)
	share := func(label string, k int) Series {
		return meanSeries(label, names, func(m int) float64 { return techShare(rs[m], k) })
	}
	return Figure{
		ID:    "Fig. 7",
		Title: "Share of DAP decisions by technique",
		Notes: "paper means: FWB 23%, WB 40%, IFRM 12%, SFRM 25%; SFRM-waste is the dirty-hit fraction of speculative reads",
		Series: []Series{
			share("FWB", 0), share("WB", 1), share("IFRM", 2), share("SFRM", 3),
			meanSeries("SFRM-waste", names, func(m int) float64 { return rs[m].MemSide.SpecWastedRatio() }),
		},
	}
}

// Fig08 reproduces Figure 8: main-memory CAS fraction (baseline vs DAP) and
// the memory-side cache hit ratio (baseline, FWB+WB, full DAP).
func Fig08(o Options) Figure {
	base := o.base()
	mixes := sensitiveMixes(base.CPU.Cores)
	rs := grid(o, []Config{base, withPolicy(base, DAPFWBWB), withPolicy(base, DAP)}, mixes)
	names := mixNames(mixes)
	cas := func(label string, c int) Series {
		return meanSeries(label, names, func(m int) float64 { return rs[c][m].MainMemCASFraction() })
	}
	hit := func(label string, c int) Series {
		return meanSeries(label, names, func(m int) float64 { return rs[c][m].MemSide.HitRatio() })
	}
	return Figure{
		ID:     "Fig. 8",
		Title:  "Main-memory CAS fraction and memory-side cache hit ratio",
		Notes:  "optimal CAS fraction is B_MM/(B_MM+B_MS$) = 0.27; paper means: CAS 9%->25%, hit 89%->80% (FWB+WB) ->73% (DAP)",
		Series: []Series{cas("CAS-base", 0), cas("CAS-dap", 2), hit("hit-base", 0), hit("hit-fwbwb", 1), hit("hit-dap", 2)},
	}
}

// Tab01 reproduces Table I: sensitivity of the mean DAP speedup to the
// window size W and the bandwidth-efficiency assumption E.
func Tab01(o Options) Figure {
	base := o.base()
	mixes := sensitiveMixes(base.CPU.Cores)

	cfgs := []Config{base}
	var labels []string
	for _, w := range []mem.Cycle{32, 64, 128} {
		cfgs = append(cfgs, withDAP(base, func(dc *core.Config) { dc.Window = w }))
		labels = append(labels, fmt.Sprintf("W=%d", w))
	}
	for _, e := range []float64{0.50, 0.75, 1.00} {
		cfgs = append(cfgs, withDAP(base, func(dc *core.Config) { dc.Efficiency = e }))
		labels = append(labels, fmt.Sprintf("E=%.2f", e))
	}
	return Figure{
		ID:     "Table I",
		Title:  "DAP speedup vs window size W (E=0.75) and efficiency E (W=64)",
		Notes:  "paper: W 32/64/128 -> 1.13/1.15/1.14; E 0.50/0.75/1.00 -> 1.14/1.15/1.12",
		Series: speedups(o, labels, mixes, grid(o, cfgs, mixes)),
	}
}

// Fig09 reproduces Figure 9: sensitivity to main-memory latency and
// bandwidth. Each series is DAP normalized to the baseline with the same
// main memory.
func Fig09(o Options) Figure {
	labels := []string{"DDR4-2400", "no-I/O", "LPDDR4", "DDR4-3200"}
	var bases []Config
	for _, mm := range []dram.Config{dram.DDR4_2400(), dram.DDR4_2400NoIO(), dram.LPDDR4_2400(), dram.DDR4_3200()} {
		base := o.base()
		base.MainMemory = mm
		bases = append(bases, base)
	}
	return Figure{
		ID:     "Fig. 9",
		Title:  "DAP speedup under different main-memory technologies",
		Notes:  "paper means: default 1.152, no-I/O 1.16, LPDDR4 1.08, DDR4-3200 higher than default",
		Series: dapSpeedups(o, labels, bases, sensitiveMixes(bases[0].CPU.Cores)),
	}
}

// Fig10 reproduces Figure 10: sensitivity to DRAM cache capacity (top) and
// bandwidth (bottom). Each series normalizes DAP to the baseline with the
// same cache.
func Fig10(o Options) Figure {
	var labels []string
	var bases []Config
	for _, cap := range []int{32 * mem.MiB, 64 * mem.MiB, 128 * mem.MiB} {
		base := o.base()
		base.Sectored.CapacityBytes = cap
		labels, bases = append(labels, fmt.Sprintf("%dMB", cap/mem.MiB)), append(bases, base)
	}
	for _, arr := range []dram.Config{dram.HBM102(), dram.HBM128(), dram.HBM204()} {
		base := o.base()
		base.Sectored.Array = arr
		labels, bases = append(labels, arr.Name), append(bases, base)
	}
	return Figure{
		ID:     "Fig. 10",
		Title:  "DAP speedup vs cache capacity (2/4/8 GB scaled) and bandwidth",
		Notes:  "paper: speedup grows with capacity; shrinks with cache bandwidth (15.2% at 102.4 -> 7% at 204.8)",
		Series: dapSpeedups(o, labels, bases, sensitiveMixes(bases[0].CPU.Cores)),
	}
}

// Fig11 reproduces Figure 11: comparison with SBD, SBD-WT and BATMAN.
func Fig11(o Options) Figure {
	base := o.base()
	mixes := sensitiveMixes(base.CPU.Cores)
	cfgs := []Config{base}
	for _, p := range []Policy{SBD, SBDWT, BATMAN, DAP} {
		cfgs = append(cfgs, withPolicy(base, p))
	}
	return Figure{
		ID:     "Fig. 11",
		Title:  "Related proposals vs DAP (normalized weighted speedup)",
		Notes:  "paper means: SBD 0.84, SBD-WT 1.055, BATMAN ~1.0, DAP 1.152",
		Series: speedups(o, []string{"SBD", "SBD-WT", "BATMAN", "DAP"}, mixes, grid(o, cfgs, mixes)),
	}
}

// Fig12 reproduces Figure 12: DAP on the full 44-workload suite, grouped by
// category and sorted by speedup within each.
func Fig12(o Options) Figure {
	base := o.base()
	return Figure{
		ID:           "Fig. 12",
		Title:        "DAP across all 44 workloads (12 sensitive, 5 insensitive, 27 heterogeneous)",
		PaperSummary: 1.13,
		Series:       dapSpeedups(o, []string{"DAP"}, []Config{base}, workload.AllMixes(base.CPU.Cores)),
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
	return Figure{
		ID:           "Fig. 13",
		Title:        "DAP on a 16-core system",
		PaperSummary: 1.146,
		Series:       dapSpeedups(o, []string{"DAP-16c"}, []Config{base}, sensitiveMixes(base.CPU.Cores)),
	}
}

// Fig14 reproduces Figure 14: BEAR and DAP on the Alloy cache, plus the
// main-memory CAS fraction of each.
func Fig14(o Options) Figure {
	base := o.base()
	base.Arch = AlloyCache
	bear := base
	bear.Alloy.BEAR = true

	mixes := sensitiveMixes(base.CPU.Cores)
	rs := grid(o, []Config{base, bear, withPolicy(base, DAP)}, mixes)
	series := speedups(o, []string{"Alloy+BEAR", "Alloy+DAP"}, mixes, rs)
	for c, label := range []string{"CAS-base", "CAS-bear", "CAS-dap"} {
		series = append(series, meanSeries(label, mixNames(mixes), func(m int) float64 {
			return rs[c][m].MainMemCASFraction()
		}))
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
	base512 := base
	base512.EDRAM.CapacityBytes *= 2

	mixes := sensitiveMixes(base.CPU.Cores)
	rs := grid(o, []Config{base, withPolicy(base, DAP), base512, withPolicy(base512, DAP)}, mixes)
	series := speedups(o, []string{"256MB+DAP", "512MB", "512MB+DAP"}, mixes, rs)
	for i, label := range []string{"dHit-256dap", "dHit-512", "dHit-512dap"} {
		series = append(series, meanSeries(label, mixNames(mixes), func(m int) float64 {
			return rs[i+1][m].MemSide.HitRatio() - rs[0][m].MemSide.HitRatio()
		}))
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
	cfgs := []Config{
		base,
		withDAP(base, func(*core.Config) {}),
		withDAP(base, func(d *core.Config) { d.Disable.FWB = true }),
		withDAP(base, func(d *core.Config) { d.Disable.WB = true }),
		withDAP(base, func(d *core.Config) { d.Disable.IFRM = true }),
		withDAP(base, func(d *core.Config) { d.Disable.SFRM = true }),
	}
	return Figure{
		ID:     "Abl. T",
		Title:  "DAP with one technique disabled (normalized weighted speedup)",
		Series: speedups(o, []string{"full", "-FWB", "-WB", "-IFRM", "-SFRM"}, mixes, grid(o, cfgs, mixes)),
	}
}

// AblationLearning compares the paper's raw per-window learning against an
// exponentially smoothed (EWMA) variant.
func AblationLearning(o Options) Figure {
	base := o.base()
	mixes := ablationMixes(o, base)
	cfgs := []Config{
		base,
		withDAP(base, func(d *core.Config) { d.EWMALearning = false }),
		withDAP(base, func(d *core.Config) { d.EWMALearning = true }),
	}
	return Figure{
		ID:     "Abl. L",
		Title:  "Window learning: raw windows (paper) vs EWMA smoothing",
		Series: speedups(o, []string{"raw", "ewma"}, mixes, grid(o, cfgs, mixes)),
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
	plain := withPolicy(base, DAP)
	aware := plain
	aware.ThreadAwareIFRM = true
	return Figure{
		ID:     "Abl. TA",
		Title:  "IFRM vs thread-aware IFRM on heterogeneous mixes",
		Series: speedups(o, []string{"IFRM", "thread-aware"}, mixes, grid(o, []Config{base, plain, aware}, mixes)),
	}
}

// AblationReplacement compares sector replacement policies under DAP (the
// paper uses NRU with its states in on-die SRAM).
func AblationReplacement(o Options) Figure {
	base := o.base()
	mixes := ablationMixes(o, base)
	cfgs := []Config{base}
	for _, p := range []cache.ReplPolicy{cache.NRU, cache.LRU, cache.SRRIP, cache.Rand} {
		cfg := withPolicy(base, DAP)
		cfg.Sectored.Replacement = p
		cfgs = append(cfgs, cfg)
	}
	return Figure{
		ID:     "Abl. R",
		Title:  "Sector replacement policy under DAP (baseline uses NRU)",
		Series: speedups(o, []string{"NRU", "LRU", "SRRIP", "random"}, mixes, grid(o, cfgs, mixes)),
	}
}

// AblationFootprint measures the footprint prefetcher's contribution.
func AblationFootprint(o Options) Figure {
	base := o.base()
	mixes := ablationMixes(o, base)
	with := withPolicy(base, DAP)
	without := with
	without.Sectored.Footprint = false
	return Figure{
		ID:     "Abl. F",
		Title:  "DAP with and without the footprint prefetcher",
		Series: speedups(o, []string{"footprint", "none"}, mixes, grid(o, []Config{base, with, without}, mixes)),
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
	cfgs := []Config{base}
	var labels []string
	for _, v := range vals {
		cfgs = append(cfgs, withDAP(base, func(dc *core.Config) { apply(dc, v) }))
		labels = append(labels, fmt.Sprintf("%s=%d", short, v))
	}
	return Figure{
		ID:     "Abl",
		Title:  "DAP sensitivity: " + what,
		Series: speedups(o, labels, mixes, grid(o, cfgs, mixes)),
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
	dapCfg := withPolicy(base, DAP)
	dapCfg.Observe.Decisions = true

	mixes := rateMixes(base.CPU.Cores)
	rs := grid(o, []Config{base, dapCfg}, mixes)
	rb, rd := rs[0], rs[1]
	names := mixNames(mixes)
	of := func(label string, f func(m int) float64) Series { return meanSeries(label, names, f) }
	share := func(label string, k int) Series {
		return of(label, func(m int) float64 { return techShare(rd[m], k) })
	}
	// demand is the mean per-window A_MS$ or A_MM of the DAP run
	demand := func(label string, f func(core.DecisionRecord) int64) Series {
		return of(label, func(m int) float64 {
			recs := rd[m].Decisions.Records()
			if len(recs) == 0 {
				return 0
			}
			var sum float64
			for _, rec := range recs {
				sum += float64(f(rec))
			}
			return sum / float64(len(recs))
		})
	}
	return Figure{
		ID:    "Calib.",
		Title: "Per-workload profile on the sectored cache, baseline vs DAP",
		Notes: "IPC sums the cores; FWB..SFRM are DAP's technique shares; windows..A_MM come from the DAP run's decision records (A_MS = A_MS$, backlog included)",
		Series: []Series{
			of("MPKI", func(m int) float64 { return meanMPKI(rb[m]) }),
			of("hit-base", func(m int) float64 { return rb[m].MemSide.HitRatio() }),
			of("hit-dap", func(m int) float64 { return rd[m].MemSide.HitRatio() }),
			of("tagmiss", func(m int) float64 { return rb[m].MemSide.TagCacheMissRatio() }),
			of("IPC-base", func(m int) float64 { return rb[m].AggregateIPC() }),
			of("IPC-dap", func(m int) float64 { return rd[m].AggregateIPC() }),
			of("CAS-base", func(m int) float64 { return rb[m].MainMemCASFraction() }),
			of("CAS-dap", func(m int) float64 { return rd[m].MainMemCASFraction() }),
			share("FWB", 0), share("WB", 1), share("IFRM", 2), share("SFRM", 3),
			of("windows", func(m int) float64 { return float64(len(rd[m].Decisions.Records())) }),
			of("part-frac", func(m int) float64 { return partitionedFrac(rd[m]) }),
			demand("A_MS", func(rec core.DecisionRecord) int64 { return rec.Counts.AMS() }),
			demand("A_MM", func(rec core.DecisionRecord) int64 { return rec.Counts.AMM }),
		},
	}
}
