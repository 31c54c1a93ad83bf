package telemetry

import (
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency/size distribution rendered in the
// Prometheus text format as the classic `_bucket`/`_sum`/`_count` triplet.
// Like Series, its hot path is lock-cheap: Observe is one binary search over
// the (immutable) bucket bounds plus two atomic adds — no locks, no
// allocation — so concurrent goroutines can observe on every operation
// without perturbing each other.
//
// Bucket counts are stored non-cumulatively and summed into the cumulative
// exposition at scrape time, which keeps Observe O(1) in atomics; `_count`
// is derived from the bucket totals at the same moment, so it always equals
// the `+Inf` bucket. `_sum` is tracked separately and may trail the bucket
// counts by in-flight observations during a concurrent scrape — the same
// point-in-time skew every lock-free Prometheus client exhibits.
type Histogram struct {
	bounds []float64 // ascending upper bounds, excluding +Inf
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    Series // atomic float64 accumulator
	labels []Label
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket whose upper bound contains v (le semantics: v <= bound).
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.sum.Add(v)
}

// ObserveSince records the seconds elapsed since t0 — the common
// latency-instrumentation shape (`defer h.ObserveSince(time.Now())`).
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// snapshot returns the cumulative per-bucket counts (len(bounds)+1, the
// last being the +Inf bucket == total count) and the sum.
func (h *Histogram) snapshot() (cum []uint64, sum float64) {
	cum = make([]uint64, len(h.bounds)+1)
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	cum[len(h.bounds)] = running + h.inf.Load()
	return cum, h.sum.Value()
}

// DurationBuckets returns the default latency bucket bounds, in seconds:
// 25µs to 2min in a coarse exponential ladder (an fsync around a
// millisecond, a quick-config simulation around a second, queue waits up
// to minutes).
func DurationBuckets() []float64 {
	return []float64{
		0.000025, 0.0001, 0.00025, 0.001, 0.0025, 0.01,
		0.025, 0.1, 0.25, 1, 2.5, 10, 30, 120,
	}
}

// Histogram returns (creating on first use) the histogram series
// name{labels} with the given bucket upper bounds (+Inf is implicit and
// must not be listed). Bounds must be ascending; they are fixed at first
// registration — later calls with the same (name, labels) return the
// existing histogram regardless of the bounds argument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	sig := labelSig(labels)
	r.mu.RLock()
	f := r.fams[name]
	var h *Histogram
	if f != nil && f.kind == HistogramKind {
		h = f.hists[sig]
	}
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: HistogramKind, hists: make(map[string]*Histogram)}
		r.fams[name] = f
	} else if f.kind != HistogramKind {
		panic("telemetry: metric " + name + " re-registered as histogram (was " + f.kind.String() + ")")
	}
	h = f.hists[sig]
	if h == nil {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic("telemetry: histogram " + name + " bucket bounds not ascending")
			}
		}
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)),
			labels: append([]Label(nil), labels...),
		}
		f.hists[sig] = h
	}
	return h
}

// formatLe renders a bucket bound the way Prometheus clients do ("0.005",
// "1", "+Inf").
func formatLe(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// histRows renders one histogram into exposition rows: cumulative
// `_bucket{le=...}` lines (the base label set extended with le), then
// `_sum` and `_count`.
func histRows(sig string, h *Histogram) []row {
	cum, sum := h.snapshot()
	withLe := func(le string) string {
		ls := make([]Label, len(h.labels)+1)
		copy(ls, h.labels)
		ls[len(ls)-1] = Label{"le", le}
		return labelSig(ls)
	}
	rows := make([]row, 0, len(cum)+2)
	for i, bound := range h.bounds {
		rows = append(rows, row{suffix: "_bucket", sig: withLe(formatLe(bound)), val: float64(cum[i])})
	}
	rows = append(rows,
		row{suffix: "_bucket", sig: withLe("+Inf"), val: float64(cum[len(cum)-1])},
		row{suffix: "_sum", sig: sig, val: sum},
		row{suffix: "_count", sig: sig, val: float64(cum[len(cum)-1])},
	)
	return rows
}
