package harness

import "dap/internal/stats"

// gapSeries extracts the per-window optimality-gap values of a run.
func gapSeries(r Result) []float64 {
	recs := r.Decisions.Records()
	out := make([]float64, len(recs))
	for i, rec := range recs {
		out[i] = rec.Gap
	}
	return out
}

// partitionedFrac is the fraction of a run's recorded DAP windows that
// granted any credit (0 without records).
func partitionedFrac(r Result) float64 {
	recs := r.Decisions.Records()
	var part float64
	for _, rec := range recs {
		if rec.Partitioned {
			part++
		}
	}
	if len(recs) > 0 {
		part /= float64(len(recs))
	}
	return part
}

// FigGap is the decision-introspection driver (not a paper figure): it runs
// DAP with decision recording on one bandwidth-sensitive mix per
// architecture and tabulates the per-window optimality-gap series — how far
// each window's chosen access split fell from the Equation 3 proportional
// bound — as mean and CDF quantiles, plus the fraction of windows that
// partitioned at all. Low partitioned fractions with near-zero gaps mean
// demand rarely saturated the cache; high partitioned fractions with small
// gaps are the paper's near-optimality claim made visible per window.
func FigGap(o Options) Figure {
	base := withPolicy(o.base(), DAP)
	base.Observe.Decisions = true

	mixes := sensitiveMixes(base.CPU.Cores)
	switch {
	case o.tiny && len(mixes) > 1:
		mixes = mixes[:1]
	case o.Quick && len(mixes) > 2:
		mixes = mixes[:2]
	}
	var cfgs []Config
	var names []string
	for _, a := range []Arch{SectoredDRAM, AlloyCache, SectoredEDRAM} {
		cfg := base
		cfg.Arch = a
		cfgs = append(cfgs, cfg)
		for _, m := range mixes {
			names = append(names, a.String()+"/"+m.Name)
		}
	}
	rs := grid(o, cfgs, mixes)
	// point i is architecture i/len(mixes) on mix i%len(mixes)
	pt := func(i int) Result { return rs[i/len(mixes)][i%len(mixes)] }
	gap := func(label string, f func([]float64) float64) Series {
		return meanSeries(label, names, func(i int) float64 { return f(gapSeries(pt(i))) })
	}
	quantile := func(q float64) func([]float64) float64 {
		return func(g []float64) float64 { return stats.Quantile(g, q) }
	}
	return Figure{
		ID:    "Obs. 2",
		Title: "DAP per-window optimality gap vs the Equation 3 bound",
		Notes: "gap = 1 - Delivered(chosen fractions)/(sum of source bandwidths); part-frac = fraction of windows granting any credit",
		Series: []Series{
			gap("windows", func(g []float64) float64 { return float64(len(g)) }),
			meanSeries("part-frac", names, func(i int) float64 { return partitionedFrac(pt(i)) }),
			gap("gap-mean", stats.Mean),
			gap("gap-p50", quantile(0.50)),
			gap("gap-p90", quantile(0.90)),
			gap("gap-p99", quantile(0.99)),
		},
	}
}
