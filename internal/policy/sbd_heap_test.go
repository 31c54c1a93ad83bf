package policy

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"dap/internal/ckpt"
	"dap/internal/mem"
)

// refSBD is the Dirty List as it was first written: a page -> count map
// whose eviction scans every listed page for the smallest count (ties to
// the lower page). It is the oracle the heap-backed SBD must match step
// for step.
type refSBD struct {
	sbd   *SBD // supplies the Bloom bank, hash and thresholds
	dirty map[mem.Addr]uint32
}

func newRefSBD(writeThroughOnly bool, listCap int) *refSBD {
	s := NewSBD(writeThroughOnly)
	s.ListCap = listCap
	return &refSBD{sbd: s, dirty: make(map[mem.Addr]uint32)}
}

func (r *refSBD) noteWrite(page mem.Addr) (evicted mem.Addr, mustClean bool) {
	s := r.sbd
	s.writes++
	if s.writes%16384 == 0 {
		r.decay()
	}
	if _, ok := r.dirty[page]; ok {
		r.dirty[page]++
		return 0, false
	}
	minCount := uint8(255)
	for i := uint64(0); i < 4; i++ {
		h := s.hash(page, i)
		if s.counters[h] < 255 {
			s.counters[h]++
		}
		if s.counters[h] < minCount {
			minCount = s.counters[h]
		}
	}
	if minCount < s.DirtyThreshold {
		return 0, false
	}
	s.Promotions++
	if len(r.dirty) >= s.ListCap {
		var victim mem.Addr
		best := ^uint32(0)
		first := true
		for p, c := range r.dirty {
			if first || c < best || (c == best && p < victim) {
				victim, best, first = p, c, false
			}
		}
		delete(r.dirty, victim)
		r.dirty[page] = 0
		if !s.WriteThroughOnly {
			s.Cleanings++
			return victim, true
		}
		return 0, false
	}
	r.dirty[page] = 0
	return 0, false
}

func (r *refSBD) decay() {
	for i := range r.sbd.counters {
		r.sbd.counters[i] >>= 1
	}
	for p := range r.dirty {
		r.dirty[p] >>= 1
	}
}

// saveState mirrors SBD.SaveState byte for byte.
func (r *refSBD) saveState(e *ckpt.Enc) {
	s := r.sbd
	e.U32(uint32(len(s.counters)))
	for _, c := range s.counters {
		e.U8(c)
	}
	pages := make([]mem.Addr, 0, len(r.dirty))
	for p := range r.dirty {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	e.U32(uint32(len(pages)))
	for _, p := range pages {
		e.U64(uint64(p))
		e.U32(r.dirty[p])
	}
	e.U32(s.hitEWMA)
	e.U64(s.writes)
	e.U64(s.SteeredMM)
	e.U64(s.Promotions)
	e.U64(s.Cleanings)
}

func sbdBytes(save func(*ckpt.Enc)) []byte {
	w := ckpt.NewWriter()
	save(w.Section("sbd"))
	return w.Bytes()
}

// checkHeap asserts the heap invariant and that slot indexes every entry.
func checkHeap(t *testing.T, s *SBD) {
	t.Helper()
	if len(s.slot) != len(s.heap) {
		t.Fatalf("slot has %d pages, heap %d", len(s.slot), len(s.heap))
	}
	for i, e := range s.heap {
		if s.slot[e.page] != int32(i) {
			t.Fatalf("page %#x at heap %d indexed as %d", e.page, i, s.slot[e.page])
		}
		if i > 0 && e.less(s.heap[(i-1)/2]) {
			t.Fatalf("heap order broken at %d", i)
		}
	}
}

// TestSBDDirtyListMatchesScanOracle drives the heap-backed Dirty List and
// the map-and-scan reference with the same random write and decay
// sequences and requires identical observable behavior after every step.
func TestSBDDirtyListMatchesScanOracle(t *testing.T) {
	for _, listCap := range []int{1, 2, 7, 64, 1024} {
		for _, wt := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(listCap)*2 + 1))
			s := NewSBD(wt)
			s.ListCap = listCap
			ref := newRefSBD(wt, listCap)
			// Enough distinct pages to overflow the list, drawn with a skew
			// so some pages keep accumulating counts while listed.
			pool := 3*listCap + 16
			// A full 1024-page list is compared byte for byte every 50th
			// step only: sorting it twice per step dominated the test.
			steps, decayEvery, saveEvery := 4000, 500, 1
			if listCap == 1024 {
				steps, decayEvery, saveEvery = 40000, 20000, 50
			}
			evictions := 0
			for step := 0; step < steps; step++ {
				var page mem.Addr
				if rng.Intn(4) == 0 {
					page = mem.Addr(rng.Intn(8) + 1)
				} else {
					page = mem.Addr(rng.Intn(pool) + 1)
				}
				page <<= 12
				if rng.Intn(decayEvery) == 0 {
					s.decay()
					ref.decay()
				}
				ev, clean := s.NoteWrite(page)
				rev, rclean := ref.noteWrite(page)
				if ev != rev || clean != rclean {
					t.Fatalf("cap %d wt %v step %d: NoteWrite(%#x) = (%#x,%v), reference (%#x,%v)",
						listCap, wt, step, page, ev, clean, rev, rclean)
				}
				if clean {
					evictions++
				}
				_, listed := ref.dirty[page]
				if s.InDirtyList(page) != listed || (ev != 0 && s.InDirtyList(ev)) {
					t.Fatalf("cap %d step %d: InDirtyList disagrees", listCap, step)
				}
				if s.DirtyPages() != len(ref.dirty) || s.Promotions != ref.sbd.Promotions || s.Cleanings != ref.sbd.Cleanings {
					t.Fatalf("cap %d step %d: pages/promotions/cleanings (%d,%d,%d), reference (%d,%d,%d)",
						listCap, step, s.DirtyPages(), s.Promotions, s.Cleanings,
						len(ref.dirty), ref.sbd.Promotions, ref.sbd.Cleanings)
				}
				if (step%saveEvery == 0 || step == steps-1) &&
					!bytes.Equal(sbdBytes(s.SaveState), sbdBytes(ref.saveState)) {
					t.Fatalf("cap %d step %d: SaveState bytes differ from the reference", listCap, step)
				}
			}
			checkHeap(t, s)
			if !wt && evictions == 0 {
				t.Fatalf("cap %d: sequence never overflowed the list", listCap)
			}
		}
	}
}

// TestSBDCheckpointRoundTripNonEmptyList saves a populated Dirty List
// mid-sequence, loads it into a fresh SBD, and requires the restored copy
// to make the same evictions as the original from then on. Warmup
// checkpoints always hold an empty list, so only this test reaches the
// non-empty LoadState path.
func TestSBDCheckpointRoundTripNonEmptyList(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := NewSBD(false)
	orig.ListCap = 64
	write := func(s *SBD, page mem.Addr) (mem.Addr, bool) { return s.NoteWrite(page << 12) }
	pages := make([]mem.Addr, 60000)
	for i := range pages {
		pages[i] = mem.Addr(rng.Intn(300) + 1)
	}
	for _, p := range pages[:20000] {
		write(orig, p)
	}
	if orig.DirtyPages() != orig.ListCap {
		t.Fatalf("list holds %d pages before the save, want a full list of %d", orig.DirtyPages(), orig.ListCap)
	}
	blob := sbdBytes(orig.SaveState)
	r, err := ckpt.NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := r.Section("sbd")
	if !ok {
		t.Fatal("sbd section missing")
	}
	restored := NewSBD(false)
	restored.ListCap = orig.ListCap
	if err := restored.LoadState(d); err != nil {
		t.Fatal(err)
	}
	checkHeap(t, restored)
	if got := sbdBytes(restored.SaveState); !bytes.Equal(got, blob) {
		t.Fatal("restored SBD re-saves to different bytes")
	}
	evictions := 0
	for i, p := range pages[20000:] {
		ev, clean := write(orig, p)
		rev, rclean := write(restored, p)
		if ev != rev || clean != rclean {
			t.Fatalf("write %d after restore: original evicted (%#x,%v), restored (%#x,%v)", i, ev, clean, rev, rclean)
		}
		if clean {
			evictions++
		}
	}
	if evictions == 0 {
		t.Fatal("no evictions after the restore; the test exercises nothing")
	}
	if !bytes.Equal(sbdBytes(orig.SaveState), sbdBytes(restored.SaveState)) {
		t.Fatal("original and restored SBD diverged")
	}
}

// TestSBDLoadRejectsDuplicatePage feeds LoadState a Dirty List naming one
// page twice. The page index would hold only one of the two heap slots, so
// the load must fail rather than build a corrupt heap.
func TestSBDLoadRejectsDuplicatePage(t *testing.T) {
	blob := sbdBytes(func(e *ckpt.Enc) {
		e.U32(4096)
		for i := 0; i < 4096; i++ {
			e.U8(0)
		}
		e.U32(2)
		for i := 0; i < 2; i++ {
			e.U64(0x1000)
			e.U32(uint32(i))
		}
		e.U32(512)
		for i := 0; i < 4; i++ {
			e.U64(0)
		}
	})
	r, err := ckpt.NewReader(blob)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := r.Section("sbd")
	if err := NewSBD(false).LoadState(d); err == nil {
		t.Fatal("a Dirty List naming one page twice must be rejected")
	}
}
