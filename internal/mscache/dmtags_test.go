package mscache

import (
	"math/rand"
	"slices"
	"testing"

	"dap/internal/cache"
	"dap/internal/ckpt"
	"dap/internal/mem"
)

// dmRef is the reference model for dmTags: the general one-way LRU tag
// array the Alloy cache used to run on, plus a per-set reused bit.
type dmRef struct {
	c      *cache.Cache
	reused []bool
}

func newDMRef(sets int) *dmRef {
	return &dmRef{c: cache.New(sets, 1, cache.LRU, 1), reused: make([]bool, sets)}
}

func (r *dmRef) install(a mem.Addr, dirty bool) dmVictim {
	set, _ := r.c.Index(a)
	_, ev := r.c.Insert(a, dirty)
	var v dmVictim
	if ev.Valid {
		v = dmVictim{addr: r.c.LineAddr(set, ev.Tag), valid: true, dirty: ev.Dirty, reused: r.reused[set]}
	}
	r.reused[set] = false
	return v
}

// dirtyMask builds the dirty bits of sets 64g..64g+63 one set at a time.
func (r *dmRef) dirtyMask(g int) uint64 {
	var m uint64
	for i := 0; i < 64 && 64*g+i < r.c.Sets; i++ {
		r.c.ForEachInSet(64*g+i, func(l cache.Ref) {
			if l.Dirty() {
				m |= 1 << i
			}
		})
	}
	return m
}

// dmAddr draws an address from a pool small enough that sets collide: a
// few low tags plus one far above 32 bits, at any offset within the line.
func dmAddr(rng *rand.Rand, sets int) mem.Addr {
	tags := [...]uint64{0, 1, 2, 3, 1 << 40}
	line := tags[rng.Intn(len(tags))]*uint64(sets) + uint64(rng.Intn(sets))
	return mem.Addr(line<<mem.LineShift | uint64(rng.Intn(mem.LineBytes)))
}

// TestDMTagsMatchReference drives the direct-mapped store and the
// reference with the same random presence checks, installs, dirty updates
// and reuse marks, and after every step compares hit results, victims,
// the reused bits and every word of the dirty bitmap, which is what a DBC
// refill reads.
func TestDMTagsMatchReference(t *testing.T) {
	for _, sets := range []int{16, 64, 4096} {
		rng := rand.New(rand.NewSource(int64(sets)))
		dm, ref := newDMTags(sets), newDMRef(sets)
		for step := 0; step < 3000; step++ {
			a := dmAddr(rng, sets)
			set, hit := dm.lookup(a)
			if rs, _ := ref.c.Index(a); rs != set {
				t.Fatalf("sets=%d step %d: %#x maps to set %d, reference %d", sets, step, a, set, rs)
			}
			rr := ref.c.Probe(a)
			if hit != rr.Ok() {
				t.Fatalf("sets=%d step %d: lookup(%#x) hit=%v, reference %v", sets, step, a, hit, rr.Ok())
			}
			switch op := rng.Intn(4); {
			case op == 0 || !hit:
				dirty := rng.Intn(2) == 0
				if got, want := dm.install(a, dirty), ref.install(a, dirty); got != want {
					t.Fatalf("sets=%d step %d: install(%#x) victim %+v, reference %+v", sets, step, a, got, want)
				}
			case op == 1:
				d := rng.Intn(2) == 0
				dm.setDirty(set, d)
				rr.SetDirty(d)
			case op == 2:
				dm.markReused(set)
				ref.reused[set] = true
			}
			for g, got := range dm.dirty {
				if want := ref.dirtyMask(g); got != want {
					t.Fatalf("sets=%d step %d: dirty word %d = %#x, reference %#x", sets, step, g, got, want)
				}
			}
			for s, want := range ref.reused {
				if got := dm.reused[s/64]&(1<<(s%64)) != 0; got != want {
					t.Fatalf("sets=%d step %d: reused bit of set %d = %v, reference %v", sets, step, s, got, want)
				}
			}
		}
	}
}

func saveDMTags(t *testing.T, dm *dmTags) *ckpt.Dec {
	t.Helper()
	w := ckpt.NewWriter()
	dm.saveState(w.Section("tags"))
	r, err := ckpt.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d, ok := r.Section("tags")
	if !ok {
		t.Fatal("section missing")
	}
	return d
}

// TestDMTagsCheckpointRoundTrip saves a populated store and restores it
// into a fresh one of the same size; a store of another size refuses the
// section and stays empty.
func TestDMTagsCheckpointRoundTrip(t *testing.T) {
	const sets = 256
	rng := rand.New(rand.NewSource(3))
	dm := newDMTags(sets)
	for i := 0; i < 2000; i++ {
		a := dmAddr(rng, sets)
		if set, hit := dm.lookup(a); hit && rng.Intn(2) == 0 {
			dm.markReused(set)
		} else {
			dm.install(a, rng.Intn(3) == 0)
		}
	}
	got := newDMTags(sets)
	if err := got.loadState(saveDMTags(t, dm)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.tv, dm.tv) || !slices.Equal(got.dirty, dm.dirty) || !slices.Equal(got.reused, dm.reused) {
		t.Fatal("restored store differs from the saved one")
	}

	other := newDMTags(2 * sets)
	if err := other.loadState(saveDMTags(t, dm)); err == nil {
		t.Fatal("a store of another set count must refuse the checkpoint")
	}
	for _, w := range [][]uint64{other.tv, other.dirty, other.reused} {
		if slices.ContainsFunc(w, func(v uint64) bool { return v != 0 }) {
			t.Fatal("a refused load must leave the store untouched")
		}
	}
}
