package sim

import (
	"testing"

	"dap/internal/mem"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(10, func() { order = append(order, 2) })
	e.At(5, func() { order = append(order, 1) })
	e.At(10, func() { order = append(order, 3) }) // same time: insertion order
	e.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("now = %d, want 10", e.Now())
	}
}

func TestEnginePastClamped(t *testing.T) {
	e := New()
	e.At(100, func() {
		e.At(50, func() {
			if e.Now() != 100 {
				t.Errorf("past event ran at %d, want clamped to 100", e.Now())
			}
		})
	})
	e.Drain()
}

func TestEngineAfter(t *testing.T) {
	e := New()
	fired := mem.Cycle(0)
	e.At(7, func() {
		e.After(5, func() { fired = e.Now() })
	})
	e.Drain()
	if fired != 12 {
		t.Fatalf("After fired at %d, want 12", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		e.After(10, tick)
	}
	e.After(10, tick)
	e.RunUntil(100)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %d, want 100", e.Now())
	}
	// queue must still hold the next tick
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestRunUntilAdvancesIdleTime(t *testing.T) {
	e := New()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("now = %d, want 500 even with empty queue", e.Now())
	}
}

func TestRunWhile(t *testing.T) {
	e := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		e.After(1, tick)
	}
	e.After(1, tick)
	e.RunWhile(func() bool { return n < 5 })
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestStepEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue must return false")
	}
}

func TestManyEventsStaySorted(t *testing.T) {
	e := New()
	last := mem.Cycle(0)
	// schedule in reverse and confirm monotone execution
	for i := 1000; i > 0; i-- {
		e.At(mem.Cycle(i), func() {
			if e.Now() < last {
				t.Fatalf("time went backwards: %d < %d", e.Now(), last)
			}
			last = e.Now()
		})
	}
	e.Drain()
	if last != 1000 {
		t.Fatalf("last = %d, want 1000", last)
	}
}

// BenchmarkEngineEvent measures event scheduling/dispatch cost. The
// callback is hoisted out of the loop — exactly how the simulator's hot
// paths schedule (prebound handlers, AtArg) — so the benchmark reports the
// engine's own cost: with the timing wheel it must be allocation-free.
func BenchmarkEngineEvent(b *testing.B) {
	eng := New()
	n := 0
	fn := func() { n++ }
	for i := 0; i < b.N; i++ {
		eng.After(mem.Cycle(i%64), fn)
		if eng.Pending() > 1024 {
			eng.Drain()
		}
	}
	eng.Drain()
	if n != b.N {
		b.Fatal("event loss")
	}
}
