package cache

import (
	"testing"

	"dap/internal/mem"
)

func TestSRRIPHitPromotion(t *testing.T) {
	c := New(1, 4, SRRIP, 1)
	a := mem.Addr(0)
	b := mem.Addr(1 << 6)
	c.Insert(a, false)
	c.Insert(b, false)
	c.Lookup(a) // promote a to rrpv 0
	// fill the set; a (rrpv 0) must survive the next evictions
	c.Insert(mem.Addr(2<<6), false)
	c.Insert(mem.Addr(3<<6), false)
	c.Insert(mem.Addr(4<<6), false) // evicts someone
	if !c.Probe(a).Ok() {
		t.Fatal("promoted line evicted before distant ones")
	}
}

func TestSRRIPAgingTerminates(t *testing.T) {
	c := New(1, 4, SRRIP, 1)
	for i := 0; i < 4; i++ {
		c.Insert(mem.Addr(i)<<6, false)
		c.Lookup(mem.Addr(i) << 6) // everything rrpv 0
	}
	// victim selection must age the set and still return a line
	v := c.Victim(mem.Addr(99) << 6)
	if !v.Ok() || !v.Valid() {
		t.Fatal("SRRIP aging must converge to a victim")
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// a reused working set should survive a one-pass scan better under
	// SRRIP than under LRU
	miss := func(p ReplPolicy) int {
		c := New(16, 4, p, 1)
		misses := 0
		hot := make([]mem.Addr, 32)
		for i := range hot {
			hot[i] = mem.Addr(i) << 6
		}
		scan := 0
		for round := 0; round < 200; round++ {
			// two passes over the hot set: the second establishes reuse
			for pass := 0; pass < 2; pass++ {
				for _, a := range hot {
					if !c.Lookup(a).Ok() {
						misses++
						c.Insert(a, false)
					}
				}
			}
			// scan 48 never-reused lines
			for i := 0; i < 48; i++ {
				scan++
				a := mem.Addr(1<<20) + mem.Addr(scan)<<6
				if !c.Lookup(a).Ok() {
					c.Insert(a, false)
				}
			}
		}
		return misses
	}
	lru, srrip := miss(LRU), miss(SRRIP)
	if srrip >= lru {
		t.Fatalf("SRRIP (%d misses) should beat LRU (%d) under scans", srrip, lru)
	}
}

func TestRandVictimIsValidWay(t *testing.T) {
	c := New(4, 4, Rand, 1)
	for i := 0; i < 64; i++ {
		c.Insert(mem.Addr(i)<<6, false)
	}
	// every set must still hold exactly Ways lines
	for si := 0; si < c.Sets; si++ {
		n := 0
		c.ForEachInSet(si, func(Ref) { n++ })
		if n != c.Ways {
			t.Fatalf("set %d holds %d lines", si, n)
		}
	}
}

func TestRandEventuallyEvictsEverything(t *testing.T) {
	c := New(1, 2, Rand, 1)
	c.Insert(mem.Addr(0), false)
	c.Insert(mem.Addr(1<<6), false)
	evicted := map[uint64]bool{}
	for i := 2; i < 200; i++ {
		_, ev := c.Insert(mem.Addr(i)<<6, false)
		if ev.Valid {
			evicted[ev.Tag] = true
		}
	}
	if len(evicted) < 100 {
		t.Fatalf("random replacement looks stuck: %d distinct evictions", len(evicted))
	}
}
