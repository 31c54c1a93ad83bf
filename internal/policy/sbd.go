// Package policy implements the related proposals the paper compares
// against in Section VI-A.4: SBD (self-balancing dispatch, MICRO 2012) with
// its write-through variant SBD-WT, and BATMAN (bandwidth-aware tiered
// memory management). The package contains only the decision state
// machines; the memory-side cache controllers in internal/mscache wire
// their consequences (write-through traffic, forced cleaning, set
// disabling) into the datapath.
package policy

import "dap/internal/mem"

// SBD is the self-balancing dispatch policy: reads predicted to hit the
// DRAM cache are steered to whichever source (cache or main memory) has the
// lowest expected service latency. Pages with a high volume of writes are
// tracked in a Dirty List via a bank of counting Bloom filters and always
// use the cache; all other pages are operated write-through so that
// steering their reads to main memory is safe.
type SBD struct {
	// WriteThroughOnly selects the SBD-WT variant: pages falling out of
	// the Dirty List are NOT forcibly cleaned.
	WriteThroughOnly bool

	// DirtyThreshold is the write count that promotes a page to the Dirty
	// List.
	DirtyThreshold uint8
	// ListCap bounds the Dirty List; insertions beyond it evict the
	// page with the smallest recent write count.
	ListCap int

	counters []uint8 // counting Bloom filter bank

	// The Dirty List is an indexed binary min-heap of (count, page) ordered
	// by recent write count with ties going to the lower page, so the root
	// is always the eviction victim; slot maps each listed page to its heap
	// index. Promotion into a full list replaces the root and a write to a
	// listed page sifts it down, both O(log n) instead of a scan of the list.
	heap []dirtyEntry
	slot map[mem.Addr]int32

	// hit predictor: global EWMA of DRAM cache read hit outcomes, in
	// 1/1024 units.
	hitEWMA uint32

	// decay bookkeeping
	writes uint64

	// Stats
	SteeredMM  uint64
	Promotions uint64
	Cleanings  uint64
}

// NewSBD returns an SBD instance with the defaults used in the evaluation.
func NewSBD(writeThroughOnly bool) *SBD {
	return &SBD{
		WriteThroughOnly: writeThroughOnly,
		DirtyThreshold:   4,
		ListCap:          1024,
		counters:         make([]uint8, 4096),
		slot:             make(map[mem.Addr]int32),
		hitEWMA:          512,
	}
}

func (s *SBD) hash(page mem.Addr, i uint64) int {
	h := uint64(page)*0x9e3779b97f4a7c15 + i*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return int(h % uint64(len(s.counters)))
}

// InDirtyList reports whether the page is currently write-backed.
func (s *SBD) InDirtyList(page mem.Addr) bool {
	_, ok := s.slot[page]
	return ok
}

// Steerable reports whether reads of this page may be served by main
// memory. Only pages whose write volume never crossed the Dirty List
// threshold are guaranteed write-through and hence memory-consistent; a
// page that ever accumulated enough writes may hold (or once held) dirty
// blocks, so the hardware cannot prove the memory copy fresh.
func (s *SBD) Steerable(page mem.Addr) bool {
	if _, ok := s.slot[page]; ok {
		return false
	}
	for i := uint64(0); i < 4; i++ {
		if s.counters[s.hash(page, i)] >= s.DirtyThreshold {
			return false
		}
	}
	return true
}

// NoteWrite records a write to page. It returns a non-zero evicted page
// (and true) when promoting this page pushed another page out of the Dirty
// List; the caller must then clean that page's dirty blocks unless running
// the WT variant.
func (s *SBD) NoteWrite(page mem.Addr) (evicted mem.Addr, mustClean bool) {
	s.writes++
	if s.writes%16384 == 0 {
		s.decay()
	}
	if i, ok := s.slot[page]; ok {
		s.heap[i].count++
		s.siftDown(int(i))
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
	if len(s.heap) < max(s.ListCap, 1) {
		s.heap = append(s.heap, dirtyEntry{page: page})
		s.siftUp(len(s.heap) - 1)
		return 0, false
	}
	// Evict the page with the smallest recent write count, ties going to
	// the lower page address (the heap root), so the victim never depends
	// on insertion order or map layout.
	victim := s.heap[0].page
	delete(s.slot, victim)
	s.heap[0] = dirtyEntry{page: page}
	s.siftDown(0)
	if !s.WriteThroughOnly {
		s.Cleanings++
		return victim, true
	}
	return 0, false
}

// decay halves all Bloom counters and list counts (epoch aging). Halving
// can tie counts that were ordered, leaving page order to decide, so the
// heap is rebuilt.
func (s *SBD) decay() {
	for i := range s.counters {
		s.counters[i] >>= 1
	}
	for i := range s.heap {
		s.heap[i].count >>= 1
	}
	s.heapify()
}

// dirtyEntry is one Dirty List page with its recent write count.
type dirtyEntry struct {
	page  mem.Addr
	count uint32
}

// less is the Dirty List eviction order.
func (a dirtyEntry) less(b dirtyEntry) bool {
	return a.count < b.count || (a.count == b.count && a.page < b.page)
}

// heapify restores the heap order over the whole list in O(n).
func (s *SBD) heapify() {
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// siftUp and siftDown move an entry along its heap path, shifting the
// entries it passes into the hole it leaves; every moved page's index is
// rewritten once.
func (s *SBD) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.slot[s.heap[i].page] = int32(i)
		i = p
	}
	s.heap[i] = e
	s.slot[e.page] = int32(i)
}

func (s *SBD) siftDown(i int) {
	e := s.heap[i]
	n := len(s.heap)
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s.heap[r].less(s.heap[m]) {
			m = r
		}
		if !s.heap[m].less(e) {
			break
		}
		s.heap[i] = s.heap[m]
		s.slot[s.heap[i].page] = int32(i)
		i = m
	}
	s.heap[i] = e
	s.slot[e.page] = int32(i)
}

// DirtyPages returns the current Dirty List occupancy.
func (s *SBD) DirtyPages() int { return len(s.heap) }

// NoteReadOutcome trains the hit predictor.
func (s *SBD) NoteReadOutcome(hit bool) {
	v := uint32(0)
	if hit {
		v = 1024
	}
	s.hitEWMA = (s.hitEWMA*15 + v) / 16
}

// PredictHit reports whether the next read is expected to hit the cache.
func (s *SBD) PredictHit() bool { return s.hitEWMA >= 512 }

// SteerToMM applies the expected-latency rule: steer to main memory when
// its expected latency (queue length x service time + base latency) is
// lower than the cache's. Times are in CPU cycles.
func (s *SBD) SteerToMM(qMM, qMS int, svcMM, svcMS, latMM, latMS mem.Cycle) bool {
	expMM := mem.Cycle(qMM)*svcMM + latMM
	expMS := mem.Cycle(qMS)*svcMS + latMS
	if expMM < expMS {
		s.SteeredMM++
		return true
	}
	return false
}
