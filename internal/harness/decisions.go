package harness

import (
	"io"

	"dap/internal/core"
	"dap/internal/runner"
	"dap/internal/stats"
	"dap/internal/telemetry"
)

// telemetryDecision converts a core decision record into the telemetry
// wire form (telemetry stays import-free of the simulator packages).
func telemetryDecision(rec core.DecisionRecord) telemetry.Decision {
	return telemetry.Decision{
		Cycle:       uint64(rec.Cycle),
		Window:      rec.Window,
		Gap:         rec.Gap,
		Delivered:   rec.DeliveredGBps,
		Optimal:     rec.OptimalGBps,
		Fractions:   rec.Fractions,
		OptimalFrac: rec.Optimal,
		FWB:         rec.FWB,
		WB:          rec.WB,
		IFRM:        rec.IFRM,
		SFRM:        rec.SFRM,
		WT:          rec.WT,
		Partitioned: rec.Partitioned,
	}
}

// WriteTrace writes the run's Chrome trace, merging the decision recorder's
// counter tracks (optimality gap, delivered bandwidth, access fractions)
// into the request-lifecycle span stream when decision recording was on.
// Safe with either instrument disabled.
func (r *Result) WriteTrace(w io.Writer) error {
	return r.Trace.WriteChromeTraceWith(w, r.Decisions.CounterTracks())
}

// gapSeries extracts the per-window optimality-gap values of a run.
func gapSeries(r Result) []float64 {
	recs := r.Decisions.Records()
	out := make([]float64, len(recs))
	for i, rec := range recs {
		out[i] = rec.Gap
	}
	return out
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
	base := o.base()
	base.Policy = DAP
	base.Observe.Decisions = true

	mixes := sensitiveMixes(base.CPU.Cores)
	switch {
	case o.tiny && len(mixes) > 1:
		mixes = mixes[:1]
	case o.Quick && len(mixes) > 2:
		mixes = mixes[:2]
	}
	archs := []Arch{SectoredDRAM, AlloyCache, SectoredEDRAM}

	type point struct {
		name string
		cfg  Config
	}
	var pts []point
	for _, a := range archs {
		cfg := base
		cfg.Arch = a
		for _, m := range mixes {
			pts = append(pts, point{name: a.String() + "/" + m.Name, cfg: cfg})
		}
	}

	mk := func(label string) Series {
		names := make([]string, len(pts))
		for i, p := range pts {
			names[i] = p.name
		}
		return Series{Label: label, Names: names, SummaryKind: "MEAN"}
	}
	series := []Series{
		mk("windows"), mk("part-frac"),
		mk("gap-mean"), mk("gap-p50"), mk("gap-p90"), mk("gap-p99"),
	}

	results := runner.Map(o.Parallel, len(pts), func(i int) Result {
		return o.run(pts[i].cfg, mixes[i%len(mixes)])
	})
	for _, r := range results {
		gaps := gapSeries(r)
		var part float64
		for _, rec := range r.Decisions.Records() {
			if rec.Partitioned {
				part++
			}
		}
		if len(gaps) > 0 {
			part /= float64(len(gaps))
		}
		series[0].Values = append(series[0].Values, float64(len(gaps)))
		series[1].Values = append(series[1].Values, part)
		series[2].Values = append(series[2].Values, stats.Mean(gaps))
		series[3].Values = append(series[3].Values, stats.Quantile(gaps, 0.50))
		series[4].Values = append(series[4].Values, stats.Quantile(gaps, 0.90))
		series[5].Values = append(series[5].Values, stats.Quantile(gaps, 0.99))
	}
	for i := range series {
		series[i].Summary = stats.Mean(series[i].Values)
	}
	return Figure{
		ID:     "Obs. 2",
		Title:  "DAP per-window optimality gap vs the Equation 3 bound",
		Notes:  "gap = 1 - Delivered(chosen fractions)/(sum of source bandwidths); part-frac = fraction of windows granting any credit",
		Series: series,
	}
}
