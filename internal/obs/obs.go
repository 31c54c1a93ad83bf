// Package obs is the time-resolved observability layer of the simulator:
// a windowed metrics sampler (ring-buffered counter/gauge series exported
// as CSV), a request-lifecycle tracer that stamps L3 misses through their
// phases and exports Chrome trace-event JSON viewable in Perfetto, and the
// plumbing that feeds the latency-breakdown histograms in internal/stats.
//
// Everything here is designed to be a strict observer: hooks are nil-safe
// no-ops when disabled, probes never mutate simulated state, and sampler
// events only read — so an instrumented run produces a bit-identical
// stats.Run to an uninstrumented one (the same determinism bar as the
// runtime invariant auditor).
package obs

// WindowedRatio returns a gauge probe reporting num/den over the interval
// since the probe was last sampled (0 when the denominator did not move).
// The closure is stateful — it keeps the previous cumulative values — and
// relies on the sampler calling each probe exactly once per sample, which
// the Sampler guarantees.
func WindowedRatio(num, den func() uint64) func() float64 {
	var pn, pd uint64
	return func() float64 {
		n, d := num(), den()
		dn, dd := n-pn, d-pd
		pn, pd = n, d
		if dd == 0 {
			return 0
		}
		return float64(dn) / float64(dd)
	}
}
