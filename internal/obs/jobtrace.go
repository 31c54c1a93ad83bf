package obs

import (
	"io"
	"strings"
	"sync"
	"time"
)

// JobTracer records the service-level lifecycle of sweep jobs — spans for
// execution and the store write, instants for the submit, cache-hit and
// failed edges — as wall-clock events keyed by job ID, and renders them as
// Chrome trace-event JSON so a whole sweep opens in Perfetto with one
// track per job.
//
// Unlike the simulation Tracer (single-threaded, simulated cycles), the
// JobTracer is shared by every service goroutine: workers and HTTP
// handlers record concurrently, so it is mutex-protected and wall-clock
// based. The buffer is bounded; events past the cap are counted
// in Dropped rather than retained. A nil *JobTracer is a valid disabled
// tracer — every method is a nil-safe no-op.
type JobTracer struct {
	mu      sync.Mutex
	t0      time.Time
	max     int
	events  []jobEvent
	tracks  map[uint64]string
	order   []uint64
	dropped uint64
}

type jobEvent struct {
	name  string
	phase byte // 'X' complete, 'i' instant
	tid   uint64
	ts    time.Duration // since t0
	dur   time.Duration // 'X' only
	args  []string      // alternating key, value
}

// NewJobTracer builds a tracer retaining at most capacity events (≤ 0
// selects 1<<16). The trace clock starts at the first recorded event.
func NewJobTracer(capacity int) *JobTracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &JobTracer{max: capacity, tracks: make(map[uint64]string)}
}

// Track names job tid's track in the rendered trace (typically the
// correlation ID plus the mix/policy). First name wins.
func (jt *JobTracer) Track(tid uint64, name string) {
	if jt == nil {
		return
	}
	jt.mu.Lock()
	if _, ok := jt.tracks[tid]; !ok {
		jt.tracks[tid] = name
		jt.order = append(jt.order, tid)
	}
	jt.mu.Unlock()
}

// Span records a completed interval [start, end) on job tid's track. args
// are alternating key, value strings rendered into the event's args object.
func (jt *JobTracer) Span(tid uint64, name string, start, end time.Time, args ...string) {
	if jt == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	jt.record(jobEvent{name: name, phase: 'X', tid: tid, dur: end.Sub(start), args: args}, start)
}

// Instant records a point event on job tid's track.
func (jt *JobTracer) Instant(tid uint64, name string, args ...string) {
	if jt == nil {
		return
	}
	jt.record(jobEvent{name: name, phase: 'i', tid: tid, args: args}, time.Now())
}

func (jt *JobTracer) record(ev jobEvent, at time.Time) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if jt.t0.IsZero() {
		jt.t0 = at
	}
	if len(jt.events) >= jt.max {
		jt.dropped++
		return
	}
	ev.ts = at.Sub(jt.t0)
	if ev.ts < 0 {
		ev.ts = 0
	}
	jt.events = append(jt.events, ev)
}

// Len returns the number of retained events.
func (jt *JobTracer) Len() int {
	if jt == nil {
		return 0
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return len(jt.events)
}

// Dropped returns how many events were discarded because the buffer was
// full.
func (jt *JobTracer) Dropped() uint64 {
	if jt == nil {
		return 0
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.dropped
}

// HasInstant reports whether an instant event with the given name was
// recorded — used by tests to assert lifecycle edges (e.g. "failed").
func (jt *JobTracer) HasInstant(name string) bool {
	if jt == nil {
		return false
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	for i := range jt.events {
		if jt.events[i].phase == 'i' && jt.events[i].name == name {
			return true
		}
	}
	return false
}

func traceWallUS(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1000
}

func renderArgs(sb *strings.Builder, args []string) {
	sb.WriteString(`"args":{`)
	for i := 0; i+1 < len(args); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('"')
		sb.WriteString(jsonEscape(args[i]))
		sb.WriteString(`":"`)
		sb.WriteString(jsonEscape(args[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

// WriteChromeTrace renders the retained job events as Chrome trace-event
// JSON: one named track per job (tid = job ID) under pid 1 — distinct from
// the simulation tracer's pid 0 core tracks, so both traces can be merged.
func (jt *JobTracer) WriteChromeTrace(w io.Writer) error {
	cw := NewChromeTraceWriter(w)
	if jt != nil {
		jt.mu.Lock()
		for _, tid := range jt.order {
			cw.Emit(`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"%s"}}`,
				tid, jsonEscape(jt.tracks[tid]))
		}
		for i := range jt.events {
			ev := &jt.events[i]
			var sb strings.Builder
			renderArgs(&sb, ev.args)
			switch ev.phase {
			case 'X':
				cw.Emit(`{"name":"%s","cat":"job","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,%s}`,
					jsonEscape(ev.name), ev.tid, traceWallUS(ev.ts), traceWallUS(ev.dur), sb.String())
			default:
				cw.Emit(`{"name":"%s","cat":"job","ph":"i","s":"t","pid":1,"tid":%d,"ts":%.3f,%s}`,
					jsonEscape(ev.name), ev.tid, traceWallUS(ev.ts), sb.String())
			}
		}
		jt.mu.Unlock()
	}
	return cw.Close()
}
