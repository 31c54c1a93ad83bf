package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"dap/internal/ckpt"
	"dap/internal/cpu"
	"dap/internal/mem"
	"dap/internal/workload"
)

// sampleEvery is how often a counting wrapper times the call it forwards:
// one call in sampleEvery, to keep the clock reads off most calls.
const sampleEvery = 64

// counters are the traced op's call counts through the two wrapped
// interfaces. A traced op runs on one goroutine, so they need no locking.
type counters struct {
	next, nextTimed int64 // workload.Stream.Next calls; the timed ones
	nextNs          int64
	warm, warmTimed int64 // cpu.Backend WarmRead/WarmWriteback calls; the timed ones
	warmNs          int64
	timed           int64 // cpu.Backend Read/Writeback calls
}

// countingStream forwards to a workload stream, counting Next calls. It keeps
// the stream checkpointable.
type countingStream struct {
	s workload.StatefulStream
	c *counters
}

func (s *countingStream) Next() workload.Access {
	s.c.next++
	if s.c.next%sampleEvery != 0 {
		return s.s.Next()
	}
	t := time.Now()
	a := s.s.Next()
	s.c.nextNs += int64(time.Since(t))
	s.c.nextTimed++
	return a
}

func (s *countingStream) SaveState(e *ckpt.Enc)       { s.s.SaveState(e) }
func (s *countingStream) LoadState(d *ckpt.Dec) error { return s.s.LoadState(d) }

// countingBackend forwards to the memory-side cache controller, counting
// every call and timing the functional-warmup ones.
type countingBackend struct {
	b cpu.Backend
	c *counters
}

func (b *countingBackend) Read(a mem.Addr, core int, k mem.Kind, done func(mem.Cycle)) {
	b.c.timed++
	b.b.Read(a, core, k, done)
}

func (b *countingBackend) Writeback(a mem.Addr, core int) {
	b.c.timed++
	b.b.Writeback(a, core)
}

func (b *countingBackend) WarmRead(a mem.Addr, core int) {
	b.warm(func() { b.b.WarmRead(a, core) })
}

func (b *countingBackend) WarmWriteback(a mem.Addr, core int) {
	b.warm(func() { b.b.WarmWriteback(a, core) })
}

func (b *countingBackend) warm(call func()) {
	b.c.warm++
	if b.c.warm%sampleEvery != 0 {
		call()
		return
	}
	t := time.Now()
	call()
	b.c.warmNs += int64(time.Since(t))
	b.c.warmTimed++
}

// span is one Chrome-trace complete event.
type span struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the run started
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// phaseTime is the count and total host time of one phase in a traced op.
type phaseTime struct {
	n   int
	sec float64
}

// instr carries the instruments of one traced op: counters, the engine
// event count, phase times and spans.
type instr struct {
	cnt       counters
	events    uint64
	blobBytes int
	phases    map[string]phaseTime
	spans     *[]span
	origin    time.Time
}

// phase runs fn as the named phase, timing it when instrumented.
func (in *instr) phase(name string, fn func()) {
	if in == nil {
		fn()
		return
	}
	t := time.Now()
	fn()
	s := spanSince(name, in.origin, t, nil)
	p := in.phases[name]
	p.n++
	p.sec += s.Dur / 1e6
	in.phases[name] = p
	*in.spans = append(*in.spans, s)
}

// spanSince is a Chrome-trace event from start until now; origin is time 0.
func spanSince(name string, origin, start time.Time, args map[string]any) span {
	return span{Name: name, Ph: "X", Pid: 1, Tid: 1, Args: args,
		Ts:  float64(start.Sub(origin).Nanoseconds()) / 1e3,
		Dur: float64(time.Since(start).Nanoseconds()) / 1e3}
}

// writeChromeTrace writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto).
func writeChromeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": spans, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
