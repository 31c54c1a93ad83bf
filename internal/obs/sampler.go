package obs

import (
	"fmt"

	"dap/internal/mem"
)

// Kind selects how a probe's raw readings are turned into exported values.
type Kind uint8

const (
	// GaugeKind exports the raw reading of each sample (e.g. queue depth,
	// credit level, windowed ratio).
	GaugeKind Kind = iota
	// CounterKind exports the delta of a cumulative counter since the
	// previous sample (e.g. technique activations per window).
	CounterKind
	// UtilKind exports delta/elapsed-cycles × scale, i.e. a per-cycle rate
	// (e.g. busy-cycle utilization, IPC, bytes/cycle → GB/s).
	UtilKind
)

type probe struct {
	name  string
	kind  Kind
	scale float64
	fn    func() float64
}

// Sampler is a windowed metrics sampler: a registry of read-only probes
// polled every N cycles by a self-rescheduling simulation event, with the
// resulting rows kept in a bounded Ring.
//
// The sampler is a strict observer. Its tick event only reads probe values
// and reschedules itself; because the engine orders events by (when, seq),
// interleaving extra read-only events cannot reorder or retime any other
// event, so runs with sampling enabled stay bit-identical to runs without.
// Probes must not mutate simulated state.
//
// All probes must be registered before Start. Not safe for concurrent use
// (the engine is single-threaded).
type Sampler struct {
	now     func() mem.Cycle
	after   func(mem.Cycle, func())
	pending func() int
	every   mem.Cycle

	probes []probe

	// Sampled rows. base holds the raw readings taken just before the
	// oldest retained row (the Start snapshot initially, then each evicted
	// row), so CounterKind/UtilKind deltas survive eviction.
	base sample
	rows Ring[sample]

	started bool
	stopped bool
}

// sample is one tick's raw probe readings.
type sample struct {
	t   mem.Cycle
	row []float64
}

// NewSampler builds a sampler that polls its probes every `every` cycles.
// now/after provide the simulation clock and event scheduler (sim.Engine's
// Now and After); pending reports the number of other pending events and
// may be nil — when set, the sampler stops rescheduling itself once it is
// the only thing left in the event queue, so it never keeps a finished or
// deadlocked simulation artificially alive. capacity bounds the retained
// rows (≤ 0 selects a default of 4096; the oldest are evicted first).
func NewSampler(now func() mem.Cycle, after func(mem.Cycle, func()), pending func() int, every mem.Cycle, capacity int) *Sampler {
	if every <= 0 {
		every = 1000
	}
	if capacity <= 0 {
		capacity = 4096
	}
	return &Sampler{now: now, after: after, pending: pending, every: every, rows: NewRing[sample](capacity)}
}

// Every returns the sampling period in cycles.
func (s *Sampler) Every() mem.Cycle { return s.every }

func (s *Sampler) register(name string, kind Kind, scale float64, fn func() float64) {
	if s.started {
		panic("obs: probe registered after Sampler.Start: " + name)
	}
	s.probes = append(s.probes, probe{name: name, kind: kind, scale: scale, fn: fn})
}

// Gauge registers a probe exported as its raw per-sample reading.
func (s *Sampler) Gauge(name string, fn func() float64) {
	s.register(name, GaugeKind, 1, fn)
}

// GaugeInt is Gauge for integer-valued readings such as queue depths.
func (s *Sampler) GaugeInt(name string, fn func() int) {
	s.register(name, GaugeKind, 1, func() float64 { return float64(fn()) })
}

// Counter registers a cumulative counter exported as its delta since the
// previous sample.
func (s *Sampler) Counter(name string, fn func() uint64) {
	s.register(name, CounterKind, 1, func() float64 { return float64(fn()) })
}

// Util registers a cumulative counter exported as delta per elapsed cycle
// (a 0..1 utilization when the counter advances at most once per cycle).
func (s *Sampler) Util(name string, fn func() uint64) {
	s.UtilScaled(name, 1, fn)
}

// UtilScaled is Util with the per-cycle rate multiplied by scale — e.g.
// scale bytes/cycle by mem.CPUFreqGHz to export GB/s.
func (s *Sampler) UtilScaled(name string, scale float64, fn func() uint64) {
	s.register(name, UtilKind, scale, func() float64 { return float64(fn()) })
}

// Names returns the registered probe names in registration (column) order.
func (s *Sampler) Names() []string {
	out := make([]string, len(s.probes))
	for i := range s.probes {
		out[i] = s.probes[i].name
	}
	return out
}

// Start takes the baseline snapshot and schedules the first tick. It must
// be called at most once, after all probes are registered.
func (s *Sampler) Start() {
	if s.started || len(s.probes) == 0 {
		s.started = true
		return
	}
	s.started = true
	s.base = sample{s.now(), s.read()}
	s.after(s.every, s.tick)
}

// Stop halts sampling; any pending tick becomes a no-op.
func (s *Sampler) Stop() { s.stopped = true }

// Samples returns the number of rows currently retained.
func (s *Sampler) Samples() int { return s.rows.Len() }

// Dropped returns how many old rows were evicted to make room.
func (s *Sampler) Dropped() uint64 { return s.rows.Evicted() }

func (s *Sampler) read() []float64 {
	row := make([]float64, len(s.probes))
	for i := range s.probes {
		row[i] = s.probes[i].fn()
	}
	return row
}

func (s *Sampler) tick() {
	if s.stopped {
		return
	}
	// If nothing else is pending, the simulation has either finished or
	// deadlocked; rescheduling would keep the event loop spinning forever
	// and mask deadlock detection (which relies on the queue draining).
	if s.pending != nil && s.pending() == 0 {
		return
	}
	s.after(s.every, s.tick)
	if old, evicted := s.rows.Push(sample{s.now(), s.read()}); evicted {
		s.base = old
	}
}

// export walks the retained rows oldest-first, yielding the sample time and
// the per-probe exported values: counter deltas, per-cycle rates, or raw
// gauges per probe kind.
func (s *Sampler) export(emit func(t mem.Cycle, vals []float64)) {
	prev := s.base
	vals := make([]float64, len(s.probes))
	for i := 0; i < s.rows.Len(); i++ {
		cur := s.rows.At(i)
		dt := float64(cur.t - prev.t)
		for j := range s.probes {
			switch s.probes[j].kind {
			case CounterKind:
				vals[j] = (cur.row[j] - prev.row[j]) * s.probes[j].scale
			case UtilKind:
				if dt > 0 {
					vals[j] = (cur.row[j] - prev.row[j]) / dt * s.probes[j].scale
				} else {
					vals[j] = 0
				}
			default:
				vals[j] = cur.row[j] * s.probes[j].scale
			}
		}
		emit(cur.t, vals)
		prev = cur
	}
}

func formatVal(v float64) string {
	return fmt.Sprintf("%.6g", v)
}
