package cache

import (
	"testing"

	"dap/internal/mem"
)

// TestHotPathAllocs pins the point of the packed SoA tag store: the probe
// loop — Probe/Lookup returning a value Ref, reading line metadata through
// it, touching replacement state, and steady-state Insert over a warm set —
// performs zero heap allocations. A Ref that escaped to the heap or a
// metadata accessor that boxed would show up here immediately.
func TestHotPathAllocs(t *testing.T) {
	c := New(256, 8, LRU, 1)
	for i := 0; i < 256*8; i++ {
		c.Insert(mem.Addr(i*mem.LineBytes), i%3 == 0)
	}
	addrs := [...]mem.Addr{0, 64 * mem.LineBytes, 1024 * mem.LineBytes, 4095 * mem.LineBytes}

	if a := testing.AllocsPerRun(1000, func() {
		for _, ad := range addrs {
			if r := c.Probe(ad); r.Ok() {
				_ = r.Tag()
				_ = r.Dirty()
				_ = r.VMask()
			}
		}
	}); a != 0 {
		t.Fatalf("Probe loop allocates %.1f times per run, want 0", a)
	}

	if a := testing.AllocsPerRun(1000, func() {
		for _, ad := range addrs {
			if r := c.Lookup(ad); r.Ok() {
				r.MarkDirty()
			}
		}
	}); a != 0 {
		t.Fatalf("Lookup loop allocates %.1f times per run, want 0", a)
	}

	// Steady-state insert into a full cache: eviction plus install reuses
	// the packed arrays, no per-line records exist to allocate.
	var n int
	if a := testing.AllocsPerRun(1000, func() {
		c.Insert(mem.Addr(n*mem.LineBytes), n%2 == 0)
		n++
	}); a != 0 {
		t.Fatalf("warm Insert allocates %.1f times per run, want 0", a)
	}
}
