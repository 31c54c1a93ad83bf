package cache

import (
	"testing"
	"testing/quick"

	"dap/internal/mem"
)

func TestBasicHitMiss(t *testing.T) {
	c := New(16, 2, LRU, 1)
	a := mem.Addr(0x1000)
	if c.Lookup(a).Ok() {
		t.Fatal("empty cache must miss")
	}
	c.Insert(a, false)
	if !c.Lookup(a).Ok() {
		t.Fatal("inserted line must hit")
	}
}

func TestLRUVictim(t *testing.T) {
	c := New(1, 2, LRU, 1) // single set, 2 ways
	a := mem.Addr(0 << 6)
	b := mem.Addr(1 << 6)
	x := mem.Addr(2 << 6)
	c.Insert(a, false)
	c.Insert(b, false)
	c.Lookup(a) // a is MRU
	ev := c.Insert(x, false)
	if !ev.Valid {
		t.Fatal("full set must evict")
	}
	if c.Probe(b).Ok() {
		t.Fatal("LRU victim should have been b")
	}
	if !c.Probe(a).Ok() || !c.Probe(x).Ok() {
		t.Fatal("a and x must remain")
	}
}

func TestNRUVictimPrefersNotRecentlyUsed(t *testing.T) {
	c := New(1, 4, NRU, 1)
	addrs := []mem.Addr{0 << 6, 1 << 6, 2 << 6, 3 << 6}
	for _, a := range addrs {
		c.Insert(a, false)
	}
	// Touch all but addrs[2]; when all become recently-used the others are
	// cleared, so the last touched keeps its bit.
	c.Lookup(addrs[0])
	c.Lookup(addrs[1])
	c.Lookup(addrs[3])
	v := c.Victim(addrs[0])
	if !v.Ok() || !v.Valid() {
		t.Fatal("victim must be a valid line in a full set")
	}
	// insert and make sure the cache still functions
	c.Insert(mem.Addr(4<<6), false)
	if !c.Probe(mem.Addr(4 << 6)).Ok() {
		t.Fatal("new line must be present")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(8, 2, LRU, 1)
	a := mem.Addr(0x40)
	c.Insert(a, true)
	l, ok := c.Invalidate(a)
	if !ok || !l.Dirty {
		t.Fatalf("invalidate = %+v, %v", l, ok)
	}
	if c.Probe(a).Ok() {
		t.Fatal("line must be gone")
	}
	if _, ok := c.Invalidate(a); ok {
		t.Fatal("second invalidate must miss")
	}
}

func TestLineAddrRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		c := New(64, 4, LRU, 1)
		a := mem.Addr(raw).LineAligned()
		si, tag := c.Index(a)
		return c.LineAddr(si, tag) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineAddrRoundTripSectored(t *testing.T) {
	// SetSkip = 64 (4 KB sectors): LineAddr returns the sector base.
	f := func(raw uint32) bool {
		c := New(64, 4, NRU, 64)
		a := mem.Addr(raw).LineAligned()
		si, tag := c.Index(a)
		base := c.LineAddr(si, tag)
		// base must be sector-aligned and within the same sector as a
		return uint64(base)%(64*mem.LineBytes) == 0 &&
			uint64(a)/(64*mem.LineBytes) == uint64(base)/(64*mem.LineBytes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertEvictReturnsContents(t *testing.T) {
	c := New(1, 1, LRU, 1)
	a := mem.Addr(0x40)
	c.Insert(a, true)
	l := c.Probe(a)
	l.SetVMask(0xdeadbeef)
	ev := c.Insert(mem.Addr(0x40+64*1), false)
	if !ev.Valid || !ev.Dirty || ev.VMask != 0xdeadbeef {
		t.Fatalf("evicted = %+v", ev)
	}
}

func TestOccupancyAndForEach(t *testing.T) {
	c := New(4, 2, LRU, 1)
	for i := 0; i < 4; i++ {
		c.Insert(mem.Addr(i*64), false)
	}
	if got := c.Occupancy(); got != 0.5 {
		t.Fatalf("occupancy = %v, want 0.5", got)
	}
	n := 0
	c.ForEach(func(set int, l Ref) { n++ })
	if n != 4 {
		t.Fatalf("ForEach visited %d, want 4", n)
	}
}

func TestInvalidateSet(t *testing.T) {
	c := New(2, 2, LRU, 1)
	c.Insert(mem.Addr(0*64), true)  // set 0
	c.Insert(mem.Addr(2*64), false) // set 0
	c.Insert(mem.Addr(1*64), false) // set 1
	seen := 0
	c.InvalidateSet(0, func(l Ref) { seen++ })
	if seen != 2 {
		t.Fatalf("visited %d lines, want 2", seen)
	}
	if c.Probe(mem.Addr(0)).Ok() || c.Probe(mem.Addr(2*64)).Ok() {
		t.Fatal("set 0 must be empty")
	}
	if !c.Probe(mem.Addr(1 * 64)).Ok() {
		t.Fatal("set 1 must be untouched")
	}
}

func TestNewBytesRoundsSetsToPowerOfTwo(t *testing.T) {
	// 8 MiB at 15 ways: 8 MiB/64/15 = 8738 -> 8192 sets.
	c := NewBytes(8*mem.MiB, 15, LRU)
	if c.Sets != 8192 {
		t.Fatalf("sets = %d, want 8192", c.Sets)
	}
}

// Property: a fresh insert is always found, and a full set holds exactly
// Ways distinct tags.
func TestSetNeverOverflows(t *testing.T) {
	f := func(seeds []uint16) bool {
		c := New(4, 3, LRU, 1)
		for _, s := range seeds {
			c.Insert(mem.Addr(s)<<6, s%2 == 0)
		}
		for si := 0; si < c.Sets; si++ {
			n := 0
			c.ForEachInSet(si, func(Ref) { n++ })
			if n > c.Ways {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: inserting then probing always hits, regardless of history.
func TestInsertThenProbe(t *testing.T) {
	f := func(seeds []uint16, a uint16) bool {
		c := New(8, 2, NRU, 1)
		for _, s := range seeds {
			c.Insert(mem.Addr(s)<<6, false)
		}
		addr := mem.Addr(a) << 6
		c.Insert(addr, false)
		return c.Probe(addr).Ok()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCacheLookup measures set-associative lookup cost.
func BenchmarkCacheLookup(b *testing.B) {
	c := NewBytes(8*mem.MiB, 16, LRU)
	for i := 0; i < 1<<16; i++ {
		c.Insert(mem.Addr(i)<<mem.LineShift, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(mem.Addr(i%(1<<16)) << mem.LineShift)
	}
}
