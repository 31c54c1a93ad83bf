package cpu

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"dap/internal/cache"
	"dap/internal/ckpt"
	"dap/internal/mem"
	"dap/internal/sim"
	"dap/internal/workload"
)

// lines returns every valid line of a store and whether it is dirty.
func (s *sram) lines() map[mem.Addr]bool {
	out := map[mem.Addr]bool{}
	for set := 0; set < s.sets(); set++ {
		base := set * (s.ways + 2)
		flags := s.w[base+s.ways+1]
		for way, tv := range s.w[base : base+s.ways] {
			if tv != 0 {
				a := mem.Addr((tv>>1<<s.setShift | uint64(set)) << mem.LineShift)
				out[a] = flags>>(16+way)&1 != 0
			}
		}
	}
	return out
}

// refLines returns the same view of an LRU cache.Cache.
func refLines(c *cache.Cache) map[mem.Addr]bool {
	out := map[mem.Addr]bool{}
	for set := 0; set < c.Sets; set++ {
		c.ForEachInSet(set, func(r cache.Ref) { out[c.LineAddr(set, r.Tag())] = r.Dirty() })
	}
	return out
}

// sramAddr draws an address from a pool small enough that every set
// overflows: a few more tags than ways, plus one far above 32 bits, at any
// offset within the line.
func sramAddr(rng *rand.Rand, sets, ways int) mem.Addr {
	tag := uint64(rng.Intn(ways + 4))
	if rng.Intn(16) == 0 {
		tag = 1 << 40
	}
	line := tag*uint64(sets) + uint64(rng.Intn(sets))
	return mem.Addr(line<<mem.LineShift | uint64(rng.Intn(mem.LineBytes)))
}

// TestSRAMMatchesReference drives the store and an LRU cache.Cache of the
// same geometry with the same random lookups, probes, inserts,
// invalidations and dirty marks. After every step it compares hit or
// miss, the evicted address and its dirty bit, and every line of both.
func TestSRAMMatchesReference(t *testing.T) {
	const sets = 16
	for _, ways := range []int{8, 15, 16} {
		capacity := sets * ways * mem.LineBytes
		rng := rand.New(rand.NewSource(int64(ways)))
		s, ref := newSRAM(capacity, ways), cache.NewBytes(capacity, ways, cache.LRU)
		if s.sets() != ref.Sets {
			t.Fatalf("ways=%d: %d sets, reference %d", ways, s.sets(), ref.Sets)
		}
		for step := 0; step < 10000; step++ {
			a := sramAddr(rng, sets, ways)
			dirty := rng.Intn(4) == 0
			switch op := rng.Intn(8); {
			case op < 3:
				hit, r := s.lookup(a, dirty), ref.Lookup(a)
				if hit && dirty {
					r.MarkDirty()
				}
				if hit != r.Ok() {
					t.Fatalf("ways=%d step %d: lookup(%#x) hit=%v, reference %v", ways, step, a, hit, r.Ok())
				}
			case op < 5:
				hit, r := s.probe(a, dirty), ref.Probe(a)
				if hit && dirty {
					r.MarkDirty()
				}
				if hit != r.Ok() {
					t.Fatalf("ways=%d step %d: probe(%#x) hit=%v, reference %v", ways, step, a, hit, r.Ok())
				}
			case op < 7:
				if ref.Probe(a).Ok() {
					continue // insert takes an absent line
				}
				victim, evicted, victimDirty := s.insert(a, dirty)
				_, ev := ref.Insert(a, dirty)
				set, _ := ref.Index(a)
				if evicted != ev.Valid || evicted && (victim != ref.LineAddr(set, ev.Tag) || victimDirty != ev.Dirty) {
					t.Fatalf("ways=%d step %d: insert(%#x) evicted %#x (valid %v, dirty %v), reference %#x (valid %v, dirty %v)",
						ways, step, a, victim, evicted, victimDirty, ref.LineAddr(set, ev.Tag), ev.Valid, ev.Dirty)
				}
			default:
				present, d := s.invalidate(a)
				l, ok := ref.Invalidate(a)
				if present != ok || d != l.Dirty {
					t.Fatalf("ways=%d step %d: invalidate(%#x) = %v, %v, reference %v, %v", ways, step, a, present, d, ok, l.Dirty)
				}
			}
			if got, want := s.lines(), refLines(ref); !maps.Equal(got, want) {
				t.Fatalf("ways=%d step %d: lines %v, reference %v", ways, step, got, want)
			}
		}
	}
}

func saveSRAM(t *testing.T, s *sram) *ckpt.Dec {
	t.Helper()
	w := ckpt.NewWriter()
	s.saveState(w.Section("sram"))
	r, err := ckpt.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d, ok := r.Section("sram")
	if !ok {
		t.Fatal("section missing")
	}
	return d
}

// TestSRAMCheckpointRoundTrip saves a populated store and restores it into
// a fresh one of the same geometry. A store of another geometry refuses
// the section and stays as it was, and a section whose order word ranks a
// way twice is refused and leaves the store empty.
func TestSRAMCheckpointRoundTrip(t *testing.T) {
	const sets, ways = 64, 15
	rng := rand.New(rand.NewSource(5))
	s := newSRAM(sets*ways*mem.LineBytes, ways)
	for i := 0; i < 4000; i++ {
		if a := sramAddr(rng, sets, ways); !s.lookup(a, rng.Intn(3) == 0) {
			s.insert(a, rng.Intn(3) == 0)
		}
	}
	got := newSRAM(sets*ways*mem.LineBytes, ways)
	if err := got.loadState(saveSRAM(t, s)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.w, s.w) {
		t.Fatal("restored store differs from the saved one")
	}

	empty := newSRAM(sets*ways*mem.LineBytes, ways).w
	other := newSRAM(2*sets*ways*mem.LineBytes, ways)
	if err := other.loadState(saveSRAM(t, s)); err == nil {
		t.Fatal("a store of another set count must refuse the checkpoint")
	}
	if !slices.Equal(other.w[:len(empty)], empty) || !slices.Equal(other.w[len(empty):], empty) {
		t.Fatal("a refused geometry must leave the store untouched")
	}

	s.w[3*(ways+2)+ways] ^= 1 // set 3's first-ranked way now names a way ranked again later
	if err := got.loadState(saveSRAM(t, s)); err == nil {
		t.Fatal("an order word that ranks a way twice must be refused")
	}
	if !slices.Equal(got.w, empty) {
		t.Fatal("a refused load must leave the store empty")
	}
}

// checkInclusion fails the test unless every core's L1 lines are in its
// L2, and its L2 lines in the L3.
func checkInclusion(t *testing.T, c *CPU, when string) {
	t.Helper()
	l3 := c.l3.lines()
	for _, co := range c.cores {
		l1, l2 := co.l1.lines(), co.l2.lines()
		if len(l1) == 0 {
			t.Fatalf("%s: core %d has an empty L1", when, co.id)
		}
		for a := range l1 {
			if _, ok := l2[a]; !ok {
				t.Fatalf("%s: core %d holds %#x in L1 but not in L2", when, co.id, a)
			}
		}
		for a := range l2 {
			if _, ok := l3[a]; !ok {
				t.Fatalf("%s: core %d holds %#x in L2 but not in L3", when, co.id, a)
			}
		}
	}
}

// TestHierarchyInclusive checks L1 ⊆ L2 ⊆ L3 on every core after a
// warmup and after a timed run, for real libquantum and mcf streams. The
// L3 eviction path relies on L1 ⊆ L2 to skip the L1 probe of a line the
// L2 did not hold. A 64 KiB L2 and a 128 KiB L3 make L2 evictions and L3
// back-invalidations of lines still in L1 frequent; a missing L1
// invalidation on either path fails the check after warmup.
func TestHierarchyInclusive(t *testing.T) {
	for _, name := range []string{"libquantum", "mcf"} {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		cfg := Default()
		cfg.Cores = 2
		cfg.L2Bytes = 64 * mem.KiB
		cfg.L3Bytes = 128 * mem.KiB
		var streams []workload.Stream
		for i := 0; i < cfg.Cores; i++ {
			streams = append(streams, workload.NewStream(spec, workload.CoreSpacing*mem.Addr(i+1), uint64(i+1)))
		}
		eng := sim.New()
		c := New(cfg, eng, &fixedBackend{eng: eng, lat: 150})
		c.SetStreams(streams)
		c.Warm(60000)
		checkInclusion(t, c, name+" after warmup")
		run(t, c, eng, 60000)
		eng.RunUntil(eng.Now() + 50_000) // let outstanding fills land
		checkInclusion(t, c, name+" after a timed run")
	}
}
