package core

import (
	"dap/internal/mem"
	"dap/internal/obs"
)

// DecisionRecordVersion is the schema version stamped on every record, so
// exported decision logs stay interpretable as fields are added.
const DecisionRecordVersion = 1

// DecisionRecord is one window of partitioner introspection: exactly what
// the Figure 3 solver saw at a window rollover, what it chose, and a
// counterfactual audit of that choice against the Section III bandwidth
// model. The audit reprices the window's demand under the solved
// redirections as per-source access fractions, evaluates Equation 2 for
// those fractions, and compares against the Equation 3 bound (the
// proportional split, which delivers the sum of the source bandwidths);
// Gap is the fraction of that bound the chosen split leaves on the table.
//
// A window whose demand does not saturate the cache solves to zero credits
// by design; its record then audits the raw demand split — the gap of the
// traffic DAP chose not to touch — which is what makes the series
// comparable across partitioned and unpartitioned windows.
type DecisionRecord struct {
	// Version is DecisionRecordVersion at capture time.
	Version int
	// Cycle is the engine cycle the window closed at; Window is the
	// 1-based window ordinal (DAP.Windows after the rollover).
	Cycle  mem.Cycle
	Window uint64
	// Arch is the solver variant that produced the record.
	Arch Arch

	// Counts is the demand profile the solver consumed: the controller's
	// window counters plus queue backlog, after EWMA smoothing when that
	// learning variant is on.
	Counts WindowCounts
	// K is the hardware rational approximation of B_MS$/B_MM in use.
	K Ratio

	// Solved credit refills in applications (raw counters normalized by
	// their hardware units: fwb/sfrm by Den, wb/ifrm by Num+Den), after
	// the saturating clamp — i.e. what the controllers can actually drain.
	FWB, WB, IFRM, SFRM, WT int64
	// Partitioned reports whether any credit was granted this window.
	Partitioned bool

	// Fractions is the per-source access split implied by applying every
	// granted credit to this window's demand, ordered like SourceNames
	// (cache read channels[, cache write channels], main memory). Optimal
	// is the Equation 3/4 proportional split of the same sources.
	Fractions []float64
	Optimal   []float64
	// DeliveredGBps is Equation 2 evaluated at Fractions over the derated
	// source bandwidths; OptimalGBps is the Equation 3 bound (their sum).
	DeliveredGBps float64
	OptimalGBps   float64
	// Gap = 1 - DeliveredGBps/OptimalGBps, clamped to [0, 1]; 0 for an
	// empty window (no demand loses no bandwidth).
	Gap float64
}

// PolicyEvent is the smaller introspection record captured at the baseline
// policies' own adjustment points — BATMAN's epoch evaluation and SBD's
// periodic dirty-list decay — so baseline steering behaviour lands in the
// same artifact stream DAP decisions do.
type PolicyEvent struct {
	Version int
	Cycle   mem.Cycle
	// Policy is "batman" or "sbd".
	Policy string

	// BATMAN: epoch ordinal and the disabled-set state after it.
	Epoch        uint64
	DisabledSets int

	// SBD: dirty-list occupancy and cumulative steering counters at decay.
	DirtyPages                       int
	SteeredMM, Promotions, Cleanings uint64
}

// DecisionRecorder collects per-window DecisionRecords plus baseline
// PolicyEvents, each in a bounded obs.Ring that keeps the newest. Like the
// obs.Tracer it is a strict observer with a nil-safe API: a nil
// *DecisionRecorder is a valid disabled recorder, every method a no-op, so
// the DAP and the controllers hook it unconditionally. Recording reads
// already-computed solver state and never feeds anything back, so a run
// with recording on yields a bit-identical stats.Run
// (TestDecisionRecordingIsBitIdentical).
type DecisionRecorder struct {
	recs   obs.Ring[DecisionRecord]
	events obs.Ring[PolicyEvent]

	sources []string
}

// NewDecisionRecorder builds a recorder retaining the newest 65,536
// decision records and the newest 4,096 policy events (events are orders
// of magnitude rarer than windows).
func NewDecisionRecorder() *DecisionRecorder {
	return &DecisionRecorder{
		recs:   obs.NewRing[DecisionRecord](1 << 16),
		events: obs.NewRing[PolicyEvent](4096),
	}
}

// setSources names the bandwidth sources the records' fraction vectors are
// ordered by; the DAP calls it when the recorder is attached.
func (r *DecisionRecorder) setSources(names []string) {
	if r == nil {
		return
	}
	r.sources = names
}

// SourceNames returns the per-source labels for Fractions/Optimal entries.
func (r *DecisionRecorder) SourceNames() []string {
	if r == nil {
		return nil
	}
	return r.sources
}

// Add records one decision, evicting the oldest when the ring is full.
func (r *DecisionRecorder) Add(rec DecisionRecord) {
	if r == nil {
		return
	}
	r.recs.Push(rec)
}

// AddPolicyEvent records one baseline-policy event, evicting the oldest
// when the ring is full.
func (r *DecisionRecorder) AddPolicyEvent(ev PolicyEvent) {
	if r == nil {
		return
	}
	ev.Version = DecisionRecordVersion
	r.events.Push(ev)
}

// Records returns the retained decision records, oldest first.
func (r *DecisionRecorder) Records() []DecisionRecord {
	if r == nil {
		return nil
	}
	return r.recs.All()
}

// Last returns the most recent decision record, or false before the first.
func (r *DecisionRecorder) Last() (DecisionRecord, bool) {
	if r == nil {
		return DecisionRecord{}, false
	}
	return r.recs.Last()
}

// Events returns the retained policy events in capture order.
func (r *DecisionRecorder) Events() []PolicyEvent {
	if r == nil {
		return nil
	}
	return r.events.All()
}

// Evicted reports how many decision records the ring evicted.
func (r *DecisionRecorder) Evicted() uint64 {
	if r == nil {
		return 0
	}
	return r.recs.Evicted()
}

// SetRecorder attaches a decision recorder to the partitioner: every window
// rollover of any solver variant then captures a DecisionRecord. Passing
// nil detaches.
func (d *DAP) SetRecorder(r *DecisionRecorder) {
	d.rec = r
	r.setSources(d.sourceNames())
}

func (d *DAP) sourceNames() []string {
	if d.cfg.Arch == EDRAMArch {
		return []string{"ms.rd", "ms.wr", "mm"}
	}
	return []string{"ms", "mm"}
}

// recordDecision captures the window just solved: w is the demand profile
// the solver consumed, and the raw* fields hold the clamped refills
// setCredits just installed, before Disable folding — the recorder reports
// what the solver granted, not what the controllers can drain. Called only
// when a recorder is attached.
func (d *DAP) recordDecision(w *WindowCounts) {
	den, unit := d.k.Den, d.k.Num+d.k.Den
	rec := DecisionRecord{
		Version: DecisionRecordVersion,
		Cycle:   d.eng.Now(),
		Window:  d.Windows,
		Arch:    d.cfg.Arch,
		Counts:  *w,
		K:       d.k,
		FWB:     d.rawFWB / den,
		WB:      d.rawWB / unit,
		IFRM:    d.rawIFRM / unit,
		SFRM:    d.rawSFRM,
		WT:      d.rawWT,
	}
	// Mirror setCredits' Partitioned++ criterion on the raw counters: a
	// grant smaller than one application unit still partitions the window.
	rec.Partitioned = d.rawFWB > 0 || d.rawWB > 0 || d.rawIFRM > 0 || d.rawSFRM > 0 || d.rawWT > 0

	bw := d.cfg.SourceBandwidths()
	rec.Optimal = OptimalFractions(bw)
	rec.OptimalGBps = MaxDeliveredBandwidth(bw, 1)

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
		rec.DeliveredGBps = DeliveredBandwidth(bw, rec.Fractions)
		if rec.OptimalGBps > 0 {
			rec.Gap = clampF(1-rec.DeliveredGBps/rec.OptimalGBps, 0, 1)
		}
	}
	d.rec.Add(rec)
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

// CounterTracks renders the recorded decision series as Perfetto counter
// tracks — the optimality gap, the Equation 2 delivered bandwidth, and one
// track per source access fraction — mergeable into the request-lifecycle
// Chrome trace via obs.Tracer.WriteChromeTraceWith, so per-window solver
// state lines up under the traced misses it caused.
func (r *DecisionRecorder) CounterTracks() []obs.CounterTrack {
	if r == nil || r.recs.Len() == 0 {
		return nil
	}
	recs := r.Records()
	tracks := []obs.CounterTrack{
		{Name: "dap.gap"},
		{Name: "dap.delivered_gbps"},
	}
	for _, s := range r.sources {
		tracks = append(tracks, obs.CounterTrack{Name: "dap.frac." + s})
	}
	for i := range tracks {
		tracks[i].Points = make([]obs.CounterPoint, 0, len(recs))
	}
	for _, rec := range recs {
		tracks[0].Points = append(tracks[0].Points, obs.CounterPoint{Cycle: rec.Cycle, Value: rec.Gap})
		tracks[1].Points = append(tracks[1].Points, obs.CounterPoint{Cycle: rec.Cycle, Value: rec.DeliveredGBps})
		for i, f := range rec.Fractions {
			if 2+i < len(tracks) {
				tracks[2+i].Points = append(tracks[2+i].Points, obs.CounterPoint{Cycle: rec.Cycle, Value: f})
			}
		}
	}
	return tracks
}
