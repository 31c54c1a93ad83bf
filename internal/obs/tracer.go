package obs

import (
	"io"
	"strconv"

	"dap/internal/mem"
	"dap/internal/stats"
)

// SpanRecord is one traced L3 miss stamped through its lifecycle phases:
// arrival at the memory-side controller (Start), metadata/tag probe begin
// (Meta), DAP decision (Decide), hand-off to the serving device (Serve) and
// response (End), plus the in-device queue wait of the serving access.
type SpanRecord struct {
	Core int
	Addr mem.Addr
	Kind mem.Kind

	Start, Meta, Decide, Serve, End mem.Cycle
	// Wait is how long the serving access sat in its device queue before
	// its data burst was scheduled (reported through the onIssue argument
	// of dram.Device.AccessTraced).
	Wait mem.Cycle

	Src  int // stats.BDSrc*: which source served the data
	Tech int // stats.BDTech*: DAP technique applied to this miss
}

// Tracer samples request lifecycles into a bounded span buffer and feeds
// the per-source/per-technique latency-breakdown histograms. The buffer
// keeps the run's first spans (so the exported trace shows its start);
// sampled misses past the cap are counted in Dropped but still feed the
// breakdown. A nil *Tracer is a valid disabled tracer: Read returns a nil
// *Span, and every *Span method is a nil-safe no-op, so controllers can hook
// unconditionally.
type Tracer struct {
	now   func() mem.Cycle
	every uint64
	max   int

	seen    uint64
	spans   []SpanRecord
	dropped uint64
	bd      *stats.LatencyBreakdown
}

// NewTracer builds a tracer sampling every sampleEvery-th read (≤ 1 traces
// all) into a buffer of at most capacity spans (≤ 0 selects 1<<16). now is
// the simulation clock (sim.Engine.Now).
func NewTracer(now func() mem.Cycle, sampleEvery, capacity int) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Tracer{now: now, every: uint64(sampleEvery), max: capacity, bd: &stats.LatencyBreakdown{}}
}

// Breakdown returns the latency-breakdown histograms fed by finished spans.
func (t *Tracer) Breakdown() *stats.LatencyBreakdown {
	if t == nil {
		return nil
	}
	return t.bd
}

// Spans returns the retained span records, in completion order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	return t.spans
}

// Dropped returns how many sampled spans were not retained because the
// buffer was full (they still count in the breakdown).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Read opens a span for an L3 miss entering the memory-side controller.
// Returns nil (a valid no-op span) when tracing is disabled or the read
// falls outside the sampling stride. Whether the span is retained is
// decided here: once the buffer is full, the span is counted in Dropped and
// only feeds the breakdown when it finishes.
func (t *Tracer) Read(core int, addr mem.Addr, kind mem.Kind) *Span {
	if t == nil {
		return nil
	}
	n := t.seen
	t.seen++
	if n%t.every != 0 {
		return nil
	}
	keep := len(t.spans) < t.max
	if !keep {
		t.dropped++
	}
	now := t.now()
	return &Span{t: t, keep: keep, rec: SpanRecord{
		Core: core, Addr: addr, Kind: kind,
		// Phase marks default to the start time so unexercised phases
		// collapse to zero duration instead of underflowing.
		Start: now, Meta: now, Decide: now, Serve: now,
		Src: stats.BDSrcCache, Tech: stats.BDTechNone,
	}}
}

// Span is one in-flight traced request. All methods are nil-safe no-ops so
// call sites never branch on whether tracing is enabled.
type Span struct {
	t    *Tracer
	rec  SpanRecord
	keep bool // retained in the span buffer (decided at Read)
	done bool
}

// Meta marks the start of the tag/metadata probe.
func (sp *Span) Meta() {
	if sp == nil {
		return
	}
	sp.rec.Meta = sp.t.now()
}

// Decide marks the DAP decision point and records the technique applied
// (stats.BDTech*).
func (sp *Span) Decide(tech int) {
	if sp == nil {
		return
	}
	sp.rec.Decide = sp.t.now()
	sp.rec.Tech = tech
}

// Serve marks the hand-off to the serving device and records which source
// provides the data (stats.BDSrc*). Calling it again overwrites the mark —
// architectures that launch a speculative main-memory access and later
// discover a cache hit re-mark the span with the true source.
func (sp *Span) Serve(src int) {
	if sp == nil {
		return
	}
	sp.rec.Serve = sp.t.now()
	sp.rec.Src = src
}

// QueueWait records the serving access's in-device queue wait; usually
// wired via OnIssue rather than called directly.
func (sp *Span) QueueWait(w mem.Cycle) {
	if sp == nil || sp.done {
		return
	}
	sp.rec.Wait = w
}

// OnIssue adapts a span to the onIssue argument of dram.Device.AccessTraced.
// It returns nil for an untraced span so the request's fast path stays
// allocation-free.
func OnIssue(sp *Span) func(mem.Cycle) {
	if sp == nil {
		return nil
	}
	return sp.QueueWait
}

// Finish closes the span at completion time t, stores the record if it is
// retained, and adds its phase durations to the latency breakdown. Second
// and later calls are ignored.
func (sp *Span) Finish(t mem.Cycle) {
	if sp == nil || sp.done {
		return
	}
	sp.done = true
	sp.rec.End = t
	if sp.keep {
		sp.t.spans = append(sp.t.spans, sp.rec)
	}

	r := &sp.rec
	meta := r.Decide - r.Meta
	service := r.End - r.Serve
	// The recorded queue wait belongs to the serving access except when a
	// speculative access's wait outlived the span (parallel-path cache
	// hit); clamp so service never underflows.
	wait := r.Wait
	if wait > service {
		wait = service
	}
	sp.t.bd.Add(r.Src, r.Tech, uint64(wait), uint64(meta), uint64(service-wait), uint64(r.End-r.Start))
}

// Wrap chains Finish in front of a completion callback; for a nil span it
// returns done unchanged, so wrapping never changes event counts when
// tracing is off.
func (sp *Span) Wrap(done func(mem.Cycle)) func(mem.Cycle) {
	if sp == nil {
		return done
	}
	return func(t mem.Cycle) {
		sp.Finish(t)
		if done != nil {
			done(t)
		}
	}
}

// usPerCycle converts simulated cycles to trace microseconds (Perfetto's
// native unit) at the modeled core frequency.
const usPerCycle = 1.0 / (mem.CPUFreqGHz * 1000)

func traceUS(c mem.Cycle) string {
	return strconv.FormatFloat(float64(c)*usPerCycle, 'f', 5, 64)
}

// CounterPoint is one sample of a counter track: a value at a simulation
// cycle. CounterTrack is a named series of such samples; producers (e.g.
// the core decision recorder) hand tracks to WriteChromeTraceWith to merge
// algorithm-level time series into the request-lifecycle trace.
type CounterPoint struct {
	Cycle mem.Cycle
	Value float64
}

// CounterTrack is a named counter series rendered as Perfetto "C" events.
type CounterTrack struct {
	Name   string
	Points []CounterPoint
}

// WriteChromeTrace writes the retained spans as Chrome trace-event JSON
// (the {"traceEvents":[...]} form) loadable in Perfetto or
// chrome://tracing. Each span becomes a top-level complete event on its
// core's track plus child events for the metadata-probe, device-queue and
// data-service phases; a metadata event names each track.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return t.WriteChromeTraceWith(w, nil)
}

// WriteChromeTraceWith writes the span trace plus the given counter tracks
// in the same envelope, so per-window algorithm state (optimality gap,
// access fractions) lines up under the request lifecycles it shaped. Safe
// on a nil tracer (emits only the counter tracks) and with nil tracks
// (equivalent to WriteChromeTrace).
func (t *Tracer) WriteChromeTraceWith(w io.Writer, tracks []CounterTrack) error {
	cw := NewChromeTraceWriter(w)
	emit := cw.Emit

	for _, tr := range tracks {
		for _, p := range tr.Points {
			emit(`{"name":%q,"cat":"dap","ph":"C","pid":0,"ts":%s,"args":{"value":%s}}`,
				tr.Name, traceUS(p.Cycle), strconv.FormatFloat(p.Value, 'g', -1, 64))
		}
	}

	if t != nil {
		seen := map[int]bool{}
		for i := range t.spans {
			c := t.spans[i].Core
			if seen[c] {
				continue
			}
			seen[c] = true
			emit(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"core %d"}}`, c, c)
		}
		for i := range t.spans {
			r := &t.spans[i]
			wait := r.Wait
			if serviceTotal := r.End - r.Serve; wait > serviceTotal {
				wait = serviceTotal
			}
			emit(`{"name":"l3-miss","cat":%q,"ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"args":{"addr":"0x%x","src":%q,"tech":%q,"queue_wait":%d}}`,
				r.Kind.String(), r.Core, traceUS(r.Start), traceUS(r.End-r.Start),
				uint64(r.Addr), stats.BDSrcName(r.Src), stats.BDTechName(r.Tech), uint64(r.Wait))
			if r.Decide > r.Meta {
				emit(`{"name":"meta","cat":"phase","ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s}`,
					r.Core, traceUS(r.Meta), traceUS(r.Decide-r.Meta))
			}
			if wait > 0 {
				emit(`{"name":"queue","cat":"phase","ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s}`,
					r.Core, traceUS(r.Serve), traceUS(wait))
			}
			if r.End > r.Serve+wait {
				emit(`{"name":"service","cat":"phase","ph":"X","pid":0,"tid":%d,"ts":%s,"dur":%s,"args":{"src":%q}}`,
					r.Core, traceUS(r.Serve+wait), traceUS(r.End-r.Serve-wait), stats.BDSrcName(r.Src))
			}
		}
	}
	return cw.Close()
}
