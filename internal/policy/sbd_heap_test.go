package policy

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"

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

// stateDiff compares the SBD's decision state with the reference's: the
// Bloom bank, the listed (page, count) pairs, the hit-predictor EWMA, the
// write count that paces decay and the steered-write count. It returns ""
// when they agree, else what differs.
func stateDiff(s *SBD, ref *refSBD) string {
	r := ref.sbd
	if !bytes.Equal(s.counters, r.counters) {
		return "Bloom banks differ"
	}
	listed := make(map[mem.Addr]uint32, len(s.heap))
	for _, e := range s.heap {
		listed[e.page] = e.count
	}
	if len(listed) != len(s.heap) || !maps.Equal(listed, ref.dirty) {
		return fmt.Sprintf("Dirty List %v, reference %v", listed, ref.dirty)
	}
	if s.hitEWMA != r.hitEWMA || s.writes != r.writes || s.SteeredMM != r.SteeredMM {
		return fmt.Sprintf("hitEWMA/writes/SteeredMM (%d,%d,%d), reference (%d,%d,%d)",
			s.hitEWMA, s.writes, s.SteeredMM, r.hitEWMA, r.writes, r.SteeredMM)
	}
	return ""
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
			// A full 1024-page list is compared every 50th step only:
			// comparing it every step dominated the test.
			steps, decayEvery, compareEvery := 4000, 500, 1
			if listCap == 1024 {
				steps, decayEvery, compareEvery = 40000, 20000, 50
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
				if step%compareEvery == 0 || step == steps-1 {
					if d := stateDiff(s, ref); d != "" {
						t.Fatalf("cap %d wt %v step %d: %s", listCap, wt, step, d)
					}
				}
			}
			checkHeap(t, s)
			if !wt && evictions == 0 {
				t.Fatalf("cap %d: sequence never overflowed the list", listCap)
			}
		}
	}
}
