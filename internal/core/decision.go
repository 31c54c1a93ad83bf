package core

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"dap/internal/mem"
	"dap/internal/obs"
)

// DecisionRecord is one window of partitioner introspection: exactly what
// the Figure 3 solver saw at a window rollover, what it chose, and a
// counterfactual audit of that choice against the Section III bandwidth
// model. The audit reprices the window's demand under the solved
// redirections as per-source access fractions, evaluates Equation 2 for
// those fractions, and compares against the Equation 3 bound (the
// proportional split, which delivers the sum of the source bandwidths);
// Gap is the fraction of that bound the chosen split leaves on the table.
// What is constant over a run (the solver variant, K, the sources and the
// bound) lives on the DecisionRecorder.
//
// A window whose demand does not saturate the cache solves to zero credits
// by design; its record then audits the raw demand split — the gap of the
// traffic DAP chose not to touch — which is what makes the series
// comparable across partitioned and unpartitioned windows.
type DecisionRecord struct {
	// Cycle is the engine cycle the window closed at; Window is the
	// 1-based window ordinal (DAP.Windows after the rollover).
	Cycle  mem.Cycle
	Window uint64

	// Counts is the demand profile the solver consumed: the controller's
	// window counters plus queue backlog, after EWMA smoothing when that
	// learning variant is on.
	Counts WindowCounts

	// Solved credit refills in applications (raw counters normalized by
	// their hardware units: fwb/sfrm by Den, wb/ifrm by Num+Den), after
	// the saturating clamp — i.e. what the controllers can actually drain.
	FWB, WB, IFRM, SFRM, WT int64
	// Partitioned reports whether any credit was granted this window.
	Partitioned bool

	// Fractions is the per-source access split implied by applying every
	// granted credit to this window's demand, ordered like the recorder's
	// Sources (cache read channels[, cache write channels], main memory).
	Fractions []float64
	// DeliveredGBps is Equation 2 evaluated at Fractions over the derated
	// source bandwidths.
	DeliveredGBps float64
	// Gap = 1 - DeliveredGBps/OptimalGBps (the recorder's Equation 3
	// bound), clamped to [0, 1]; 0 for an empty window (no demand loses no
	// bandwidth).
	Gap float64
}

// DecisionRecorder collects per-window DecisionRecords in a bounded
// obs.Ring that keeps the newest. It is a strict observer: recording reads
// already-computed solver state and never feeds anything back, so a run
// with recording on yields a bit-identical stats.Run
// (TestDecisionRecordingIsBitIdentical). A nil *DecisionRecorder has no
// records.
type DecisionRecorder struct {
	// The run's constants, set once by DAP.SetRecorder: the solver
	// variant, the hardware rational approximation of B_MS$/B_MM, the
	// bandwidth sources every record's Fractions is ordered by, their
	// Equation 3/4 proportional split, and the Equation 3 bound (the sum
	// of the derated source bandwidths).
	Arch        Arch
	K           Ratio
	Sources     []string
	Optimal     []float64
	OptimalGBps float64

	bw   []float64 // the derated source bandwidths Equation 2 is evaluated over
	recs obs.Ring[DecisionRecord]
}

// NewDecisionRecorder builds a recorder retaining the newest 65,536
// decision records.
func NewDecisionRecorder() *DecisionRecorder {
	return &DecisionRecorder{recs: obs.NewRing[DecisionRecord](1 << 16)}
}

// Records returns the retained decision records, oldest first.
func (r *DecisionRecorder) Records() []DecisionRecord {
	if r == nil {
		return nil
	}
	return r.recs.All()
}

// Evicted reports how many decision records the ring evicted.
func (r *DecisionRecorder) Evicted() uint64 {
	if r == nil {
		return 0
	}
	return r.recs.Evicted()
}

// WriteCSV writes the decision table, one row per retained window. The
// arch, K and optimal columns repeat the recorder's per-run constants on
// every row, so each row stands alone.
func (r *DecisionRecorder) WriteCSV(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("cycle,window,arch,amsr,amsw,amm,rm,wm,clean_hits,k_num,k_den,fwb,wb,ifrm,sfrm,wt,partitioned")
	for _, s := range r.Sources {
		fmt.Fprintf(&sb, ",frac_%s", s)
	}
	for _, s := range r.Sources {
		fmt.Fprintf(&sb, ",opt_%s", s)
	}
	sb.WriteString(",delivered_gbps,optimal_gbps,gap\n")
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	for _, rec := range r.Records() {
		sb.Reset()
		fmt.Fprintf(&sb, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%t",
			uint64(rec.Cycle), rec.Window, int(r.Arch),
			rec.Counts.AMSR, rec.Counts.AMSW, rec.Counts.AMM,
			rec.Counts.Rm, rec.Counts.Wm, rec.Counts.CleanHits,
			r.K.Num, r.K.Den,
			rec.FWB, rec.WB, rec.IFRM, rec.SFRM, rec.WT, rec.Partitioned)
		for _, v := range rec.Fractions {
			fmt.Fprintf(&sb, ",%s", strconv.FormatFloat(v, 'g', 6, 64))
		}
		for _, v := range r.Optimal {
			fmt.Fprintf(&sb, ",%s", strconv.FormatFloat(v, 'g', 6, 64))
		}
		fmt.Fprintf(&sb, ",%s,%s,%s\n",
			strconv.FormatFloat(rec.DeliveredGBps, 'g', 6, 64),
			strconv.FormatFloat(r.OptimalGBps, 'g', 6, 64),
			strconv.FormatFloat(rec.Gap, 'g', 6, 64))
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// SetRecorder attaches a decision recorder to the partitioner and sets its
// per-run constants: every window rollover of any solver variant then
// captures a DecisionRecord.
func (d *DAP) SetRecorder(r *DecisionRecorder) {
	d.rec = r
	r.Arch, r.K = d.cfg.Arch, d.k
	r.Sources = []string{"ms", "mm"}
	if d.cfg.Arch == EDRAMArch {
		r.Sources = []string{"ms.rd", "ms.wr", "mm"}
	}
	r.bw = d.cfg.SourceBandwidths()
	r.Optimal = OptimalFractions(r.bw)
	r.OptimalGBps = MaxDeliveredBandwidth(r.bw, 1)
}

// recordDecision captures the window just solved: w is the demand profile
// the solver consumed, and the raw* fields hold the clamped refills
// setCredits just installed, before Disable folding — the recorder reports
// what the solver granted, not what the controllers can drain. Called only
// when a recorder is attached.
func (d *DAP) recordDecision(w *WindowCounts) {
	den, unit := d.k.Den, d.k.Num+d.k.Den
	rec := DecisionRecord{
		Cycle:  d.eng.Now(),
		Window: d.Windows,
		Counts: *w,
		FWB:    d.rawFWB / den,
		WB:     d.rawWB / unit,
		IFRM:   d.rawIFRM / unit,
		SFRM:   d.rawSFRM,
		WT:     d.rawWT,
	}
	// Mirror setCredits' Partitioned++ criterion on the raw counters: a
	// grant smaller than one application unit still partitions the window.
	rec.Partitioned = d.rawFWB > 0 || d.rawWB > 0 || d.rawIFRM > 0 || d.rawSFRM > 0 || d.rawWT > 0

	// Reprice the window's demand under the granted redirections. Each FWB
	// drops a cache fill outright; each WB and IFRM moves one cache access
	// to main memory; SFRM and WT add main-memory accesses without
	// relieving the cache (the metadata read and the cache write remain).
	var acc []int64
	if d.cfg.Arch == EDRAMArch {
		acc = []int64{
			w.AMSR - rec.IFRM,
			w.AMSW - rec.FWB - rec.WB,
			w.AMM + rec.WB + rec.IFRM + rec.SFRM + rec.WT,
		}
	} else {
		acc = []int64{
			w.AMS() - rec.FWB - rec.WB - rec.IFRM,
			w.AMM + rec.WB + rec.IFRM + rec.SFRM + rec.WT,
		}
	}
	var total int64
	for i, a := range acc {
		if a < 0 {
			acc[i] = 0
		}
		total += acc[i]
	}
	rec.Fractions = make([]float64, len(acc))
	if total > 0 {
		for i, a := range acc {
			rec.Fractions[i] = float64(a) / float64(total)
		}
		rec.DeliveredGBps = DeliveredBandwidth(d.rec.bw, rec.Fractions)
		if opt := d.rec.OptimalGBps; opt > 0 {
			rec.Gap = clampF(1-rec.DeliveredGBps/opt, 0, 1)
		}
	}
	d.rec.recs.Push(rec)
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
