package policy

import (
	"testing"

	"dap/internal/mem"
)

func TestSBDDirtyListPromotion(t *testing.T) {
	s := NewSBD(false)
	page := mem.Addr(42)
	if s.InDirtyList(page) {
		t.Fatal("fresh page must not be dirty-listed")
	}
	for i := 0; i < int(s.DirtyThreshold); i++ {
		s.NoteWrite(page)
	}
	if !s.InDirtyList(page) {
		t.Fatalf("page must be promoted after %d writes", s.DirtyThreshold)
	}
	if s.Promotions != 1 {
		t.Fatalf("promotions = %d", s.Promotions)
	}
}

func TestSBDListEvictionForcesCleaning(t *testing.T) {
	s := NewSBD(false)
	s.ListCap = 2
	fill := func(p mem.Addr) (mem.Addr, bool) {
		var ev mem.Addr
		var clean bool
		for i := 0; i < int(s.DirtyThreshold)+2; i++ {
			if e, c := s.NoteWrite(p); c {
				ev, clean = e, c
			}
		}
		return ev, clean
	}
	fill(1)
	fill(2)
	ev, clean := fill(3)
	if !clean || ev == 0 {
		t.Fatalf("list overflow must evict and request cleaning (ev=%d clean=%v)", ev, clean)
	}
}

func TestSBDWTNeverCleans(t *testing.T) {
	s := NewSBD(true)
	s.ListCap = 1
	for p := mem.Addr(1); p <= 8; p++ {
		for i := 0; i < 10; i++ {
			if _, clean := s.NoteWrite(p); clean {
				t.Fatal("SBD-WT must never request cleaning")
			}
		}
	}
}

func TestSBDHitPredictor(t *testing.T) {
	s := NewSBD(false)
	for i := 0; i < 50; i++ {
		s.NoteReadOutcome(false)
	}
	if s.PredictHit() {
		t.Fatal("persistent misses must predict miss")
	}
	for i := 0; i < 50; i++ {
		s.NoteReadOutcome(true)
	}
	if !s.PredictHit() {
		t.Fatal("persistent hits must predict hit")
	}
}

func TestSBDSteering(t *testing.T) {
	s := NewSBD(false)
	// empty memory queue, loaded cache queue: steer to memory
	if !s.SteerToMM(0, 50, 14, 10, 96, 60) {
		t.Fatal("loaded cache should steer to memory")
	}
	// empty cache queue: stay
	if s.SteerToMM(50, 0, 14, 10, 96, 60) {
		t.Fatal("loaded memory should not steer")
	}
	if s.SteeredMM != 1 {
		t.Fatalf("steered = %d", s.SteeredMM)
	}
}

// TestSBDDecay observes list-count halving through eviction order: page
// 0x100 listed with count 3 and page 0x200 with count 2 evict 0x200, but
// after a decay both hold 1 and the tie goes to the lower page.
func TestSBDDecay(t *testing.T) {
	victim := func(decay bool) mem.Addr {
		s := NewSBD(false)
		s.ListCap = 2
		for _, pc := range []struct {
			page  mem.Addr
			count int
		}{{0x100, 3}, {0x200, 2}} {
			for i := 0; i < 64 && !s.InDirtyList(pc.page); i++ {
				s.NoteWrite(pc.page)
			}
			if !s.InDirtyList(pc.page) {
				t.Fatalf("page %#x never promoted", pc.page)
			}
			for i := 0; i < pc.count; i++ {
				s.NoteWrite(pc.page)
			}
		}
		if decay {
			s.decay()
		}
		for i := 0; i < 64; i++ {
			if ev, clean := s.NoteWrite(0x300); clean {
				return ev
			}
		}
		t.Fatal("page 0x300 never displaced a listed page")
		return 0
	}
	if v := victim(false); v != 0x200 {
		t.Fatalf("without decay evicted %#x, want the lower count 0x200", v)
	}
	if v := victim(true); v != 0x100 {
		t.Fatalf("after decay evicted %#x, want 0x100: halved counts tie at 1", v)
	}
}

func TestBATMANTargetHitRate(t *testing.T) {
	b := NewBATMAN(1024, 102.4, 38.4)
	want := 102.4 / 140.8
	if b.TargetHitRate < want-1e-9 || b.TargetHitRate > want+1e-9 {
		t.Fatalf("target = %v, want %v", b.TargetHitRate, want)
	}
}

func TestBATMANDisablesAboveTarget(t *testing.T) {
	b := NewBATMAN(1024, 102.4, 38.4)
	for i := 0; i < 1000; i++ {
		b.NoteLookup(true) // 100% hit rate, far above target
	}
	from, to := b.Epoch()
	if to-from != 32 {
		t.Fatalf("disabled interval = [%d,%d), want one step of 32", from, to)
	}
	if !b.Disabled(0) || b.Disabled(32) {
		t.Fatal("sets [0,32) must be off, set 32 on")
	}
}

func TestBATMANReenablesBelowTarget(t *testing.T) {
	b := NewBATMAN(1024, 102.4, 38.4)
	for i := 0; i < 1000; i++ {
		b.NoteLookup(true)
	}
	b.Epoch()
	for i := 0; i < 1000; i++ {
		b.NoteLookup(i%2 == 0) // 50%: below target
	}
	b.Epoch()
	if b.DisabledSets() != 0 {
		t.Fatalf("disabled = %d, want 0", b.DisabledSets())
	}
}

func TestBATMANDeadBand(t *testing.T) {
	b := NewBATMAN(1024, 102.4, 38.4)
	// hit rate exactly at target: no action
	n := 1000
	hits := int(b.TargetHitRate * float64(n))
	for i := 0; i < n; i++ {
		b.NoteLookup(i < hits)
	}
	if f, to := b.Epoch(); f != to {
		t.Fatal("dead band must hold steady")
	}
	if b.DisabledSets() != 0 {
		t.Fatal("no sets should be disabled at the target")
	}
}

func TestBATMANNeedsSamples(t *testing.T) {
	b := NewBATMAN(1024, 102.4, 38.4)
	for i := 0; i < 10; i++ {
		b.NoteLookup(true)
	}
	if f, to := b.Epoch(); f != to {
		t.Fatal("too few samples must not trigger disabling")
	}
}

func TestBATMANCapsAtHalf(t *testing.T) {
	b := NewBATMAN(64, 102.4, 38.4)
	for e := 0; e < 100; e++ {
		for i := 0; i < 1000; i++ {
			b.NoteLookup(true)
		}
		b.Epoch()
	}
	if b.DisabledSets() > 32 {
		t.Fatalf("disabled = %d, must cap at half the sets", b.DisabledSets())
	}
}

// TestSBDEvictionDeterministic is a regression test for nondeterministic
// Dirty List eviction: when several pages tie at the minimal recent write
// count, the victim used to be whichever tied page Go's randomized map
// iteration visited first, making whole SBD simulations unreproducible.
// The tie-break is now the lowest page address, independent of insertion
// order and map layout.
func TestSBDEvictionDeterministic(t *testing.T) {
	promote := func(s *SBD, p mem.Addr) {
		for i := 0; i < 64 && !s.InDirtyList(p); i++ {
			s.NoteWrite(p)
		}
		if !s.InDirtyList(p) {
			t.Fatalf("page %#x never promoted", p)
		}
	}
	// Different insertion orders of the same tied pages must all evict the
	// lowest address. Each trial uses a fresh SBD so every listed page
	// keeps the count 0 it was promoted with (a guaranteed 4-way tie).
	orders := [][]mem.Addr{
		{0x100, 0x200, 0x300, 0x400},
		{0x400, 0x300, 0x200, 0x100},
		{0x300, 0x100, 0x400, 0x200},
		{0x200, 0x400, 0x100, 0x300},
	}
	for trial, order := range orders {
		s := NewSBD(false)
		s.ListCap = len(order)
		for _, p := range order {
			promote(s, p)
		}
		var ev mem.Addr
		for i := 0; i < 64 && !s.InDirtyList(0x500); i++ {
			if e, c := s.NoteWrite(0x500); c {
				ev = e
			}
		}
		if ev != 0x100 {
			t.Fatalf("trial %d: evicted %#x, want lowest tied page 0x100", trial, ev)
		}
	}
}
