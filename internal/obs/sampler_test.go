package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dap/internal/mem"
)

// fakeEngine is a minimal (when, FIFO) event loop standing in for
// sim.Engine in sampler tests. `other` models non-sampler work still
// pending, which the sampler's idle-stop rule consults via pending().
type fakeEngine struct {
	clock  mem.Cycle
	events []fakeEvent
	other  int
}

type fakeEvent struct {
	when mem.Cycle
	fn   func()
}

func (e *fakeEngine) now() mem.Cycle { return e.clock }

func (e *fakeEngine) after(d mem.Cycle, fn func()) {
	e.events = append(e.events, fakeEvent{when: e.clock + d, fn: fn})
}

func (e *fakeEngine) pending() int { return len(e.events) + e.other }

// run drains the event queue in (when, insertion) order, like the engine.
func (e *fakeEngine) run() {
	for len(e.events) > 0 {
		best := 0
		for i, ev := range e.events {
			if ev.when < e.events[best].when {
				best = i
			}
		}
		ev := e.events[best]
		e.events = append(e.events[:best], e.events[best+1:]...)
		e.clock = ev.when
		ev.fn()
	}
}

func TestSamplerKindsAndCSVGolden(t *testing.T) {
	eng := &fakeEngine{other: 1}
	s := NewSampler(eng.now, eng.after, eng.pending, 100, 0)

	var gauge float64
	var count, busy uint64
	s.Gauge("g", func() float64 { return gauge })
	s.Counter("c", func() uint64 { return count })
	s.Util("u", func() uint64 { return busy })
	s.UtilScaled("us", 10, func() uint64 { return busy })

	if got := strings.Join(s.Names(), ","); got != "g,c,u,us" {
		t.Fatalf("Names() = %q", got)
	}

	// Advance the observed state between ticks by scheduling mutations just
	// before each sample point.
	for i := 1; i <= 3; i++ {
		i := i
		eng.after(mem.Cycle(100*i)-1, func() {
			gauge = float64(i)
			count += uint64(10 * i)
			busy += 50
		})
	}
	// Stop the run after the third sample so the sampler's idle-stop rule
	// (nothing else pending) ends the loop.
	eng.after(301, func() { eng.other = 0 })

	s.Start()
	eng.run()

	if s.Samples() != 3 {
		t.Fatalf("Samples() = %d, want 3", s.Samples())
	}
	if s.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0", s.Dropped())
	}

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden.csv")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v", golden, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("CSV mismatch\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

// TestSamplerRingWrap checks that counter deltas stay correct after old rows
// are evicted: the evicted row becomes the new delta base.
func TestSamplerRingWrap(t *testing.T) {
	eng := &fakeEngine{other: 1}
	s := NewSampler(eng.now, eng.after, eng.pending, 10, 2)
	var count uint64
	s.Counter("c", func() uint64 { return count })
	// count advances by 1, 2, 3, 4 in the four windows.
	for i := 1; i <= 4; i++ {
		i := i
		eng.after(mem.Cycle(10*i)-1, func() { count += uint64(i) })
	}
	eng.after(41, func() { eng.other = 0 })
	s.Start()
	eng.run()

	if s.Samples() != 2 || s.Dropped() != 2 {
		t.Fatalf("Samples=%d Dropped=%d, want 2 and 2", s.Samples(), s.Dropped())
	}
	var got []float64
	s.export(func(_ mem.Cycle, vals []float64) { got = append(got, vals[0]) })
	// Retained windows are the 3rd and 4th; their deltas must still be 3, 4.
	if len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("exported deltas = %v, want [3 4]", got)
	}
}

func TestSamplerIdleStopAndLateRegisterPanic(t *testing.T) {
	eng := &fakeEngine{} // other == 0: nothing but the sampler pending
	s := NewSampler(eng.now, eng.after, eng.pending, 10, 0)
	s.Gauge("g", func() float64 { return 0 })
	s.Start()
	eng.run() // must terminate: the first tick sees pending()==0 and stops
	if s.Samples() != 0 {
		t.Errorf("idle sampler recorded %d samples, want 0", s.Samples())
	}

	defer func() {
		if recover() == nil {
			t.Error("registering a probe after Start did not panic")
		}
	}()
	s.Gauge("late", func() float64 { return 0 })
}

func TestWindowedRatio(t *testing.T) {
	var num, den uint64
	r := WindowedRatio(func() uint64 { return num }, func() uint64 { return den })
	if got := r(); got != 0 {
		t.Errorf("empty interval ratio = %v, want 0", got)
	}
	num, den = 3, 4
	if got := r(); got != 0.75 {
		t.Errorf("ratio = %v, want 0.75", got)
	}
	num, den = 3, 8 // num flat, den +4 in this interval
	if got := r(); got != 0 {
		t.Errorf("interval ratio = %v, want 0", got)
	}
}
