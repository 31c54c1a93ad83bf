// Package cache implements the set-associative tag arrays used throughout
// the hierarchy: the L1/L2/L3 data caches, and the tag arrays and SRAM tag
// cache of the sectored DRAM and eDRAM caches. The direct-mapped Alloy
// cache keeps its own tag store in internal/mscache.
//
// The caches are tag-only (the simulator never moves real data).
//
// Layout: the tag array is structure-of-arrays. The probe-critical word per
// line is tv = tag<<1 | valid, so a probe is a single 64-bit compare per way
// over a contiguous way group (an invalid line holds 0 and can never equal
// tag<<1|1). Replacement metadata lives in a second packed word — dirty,
// NRU bit and SRRIP RRPV in the low byte, the 32-bit LRU stamp in the high
// half — touched only on hits and installs. The sector valid/dirty masks
// live in side arrays that are allocated lazily on first nonzero write, so
// ordinary caches never pay for them in memory, checkpoint bytes, or probe
// bandwidth.
package cache

import "dap/internal/mem"

// ReplPolicy selects a victim within a set.
type ReplPolicy uint8

// Replacement policies.
const (
	LRU   ReplPolicy = iota
	NRU              // single-bit not-recently-used (paper's DRAM cache policy)
	SRRIP            // 2-bit static re-reference interval prediction
	Rand             // pseudo-random victim
)

// meta word layout.
const (
	metaDirty = 1 << 0
	metaNRU   = 1 << 1
	rrpvShift = 2
	rrpvMask  = 3 << rrpvShift
	rrpvOne   = 1 << rrpvShift
	lruShift  = 32
)

// Line is a value snapshot of one tag entry, returned by Insert (the evicted
// contents) and Invalidate. It is plain data, detached from the array.
type Line struct {
	Tag   uint64
	Valid bool
	Dirty bool
	VMask uint64 // per-block valid bits (sector caches; 1 bit per 64 B block)
	DMask uint64 // per-block dirty bits (sector caches)
}

// Cache is a set-associative tag array. Addresses are mapped as
// line -> set = (line / SetSkip) % Sets, tag = line / (Sets*SetSkip).
// SetSkip lets sector caches index by sector rather than by line.
type Cache struct {
	Sets    int
	Ways    int
	Policy  ReplPolicy
	SetSkip uint64 // lines per indexing unit (1 for ordinary caches)

	tv   []uint64 // Sets*Ways: tag<<1 | valid
	meta []uint64 // Sets*Ways: dirty | nru | rrpv<<2 | lru<<32

	// Lazily allocated side arrays: nil until the first nonzero write.
	vmask []uint64 // sector valid masks
	dmask []uint64 // sector dirty masks

	tick      uint32
	rng       uint64
	setMask   uint64
	setShift  uint
	unitShift uint // LineShift + log2(SetSkip) when SetSkip is a power of two
	skipPow2  bool
}

// New builds a cache with the given geometry. sets must be a power of two.
func New(sets, ways int, policy ReplPolicy, setSkip uint64) *Cache {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic("cache: sets must be a positive power of two")
	}
	if setSkip == 0 {
		setSkip = 1
	}
	n := sets * ways
	backing := make([]uint64, 2*n) // tv and meta carved from one block
	c := &Cache{
		Sets: sets, Ways: ways, Policy: policy, SetSkip: setSkip,
		tv:       backing[:n:n],
		meta:     backing[n:],
		rng:      0x9e3779b97f4a7c15,
		setMask:  uint64(sets) - 1,
		setShift: uint(log2(uint64(sets))),
	}
	if setSkip&(setSkip-1) == 0 {
		c.skipPow2 = true
		c.unitShift = mem.LineShift + uint(log2(setSkip))
	}
	return c
}

// NewBytes builds a conventional cache of the given capacity with 64 B
// lines. The set count is rounded down to a power of two, so a 16-way cache
// with one way borrowed (15 usable ways) keeps its set count.
func NewBytes(capacity, ways int, policy ReplPolicy) *Cache {
	sets := capacity / mem.LineBytes / ways
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return New(p, ways, policy, 1)
}

// Index returns the set index and tag for an address.
func (c *Cache) Index(a mem.Addr) (set int, tag uint64) {
	var unit uint64
	if c.skipPow2 {
		unit = uint64(a) >> c.unitShift
	} else {
		unit = uint64(a.Line()) / c.SetSkip
	}
	return int(unit & c.setMask), unit >> c.setShift
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Ref is a handle to one line of the packed array: the zero-cost equivalent
// of the old *Line, with accessor methods over the packed words. A failed
// probe returns a Ref whose Ok method reports false. A Ref stays valid (and
// aliases the slot, like a pointer) until the slot is re-filled by Insert or
// cleared by Invalidate.
type Ref struct {
	c *Cache
	i int32
}

// noRef is the miss sentinel.
var noRef = Ref{nil, -1}

// Ok reports whether the handle refers to a line (i.e. the probe hit).
func (r Ref) Ok() bool { return r.i >= 0 }

// Valid reports the slot's valid bit (a Victim handle may be invalid).
func (r Ref) Valid() bool { return r.c.tv[r.i]&1 != 0 }

// Tag returns the line's tag.
func (r Ref) Tag() uint64 { return r.c.tv[r.i] >> 1 }

// Dirty reports the line-granularity dirty bit.
func (r Ref) Dirty() bool { return r.c.meta[r.i]&metaDirty != 0 }

// SetDirty sets or clears the dirty bit.
func (r Ref) SetDirty(d bool) {
	if d {
		r.c.meta[r.i] |= metaDirty
	} else {
		r.c.meta[r.i] &^= metaDirty
	}
}

// MarkDirty sets the dirty bit.
func (r Ref) MarkDirty() { r.c.meta[r.i] |= metaDirty }

// VMask returns the sector valid mask.
func (r Ref) VMask() uint64 {
	if r.c.vmask == nil {
		return 0
	}
	return r.c.vmask[r.i]
}

// SetVMask stores the sector valid mask.
func (r Ref) SetVMask(v uint64) {
	if r.c.vmask == nil {
		if v == 0 {
			return
		}
		r.c.vmask = make([]uint64, len(r.c.tv))
	}
	r.c.vmask[r.i] = v
}

// OrVMask ORs bits into the sector valid mask.
func (r Ref) OrVMask(v uint64) {
	if r.c.vmask == nil {
		if v == 0 {
			return
		}
		r.c.vmask = make([]uint64, len(r.c.tv))
	}
	r.c.vmask[r.i] |= v
}

// ClearVMask clears bits of the sector valid mask.
func (r Ref) ClearVMask(v uint64) {
	if r.c.vmask == nil {
		return
	}
	r.c.vmask[r.i] &^= v
}

// DMask returns the sector dirty mask.
func (r Ref) DMask() uint64 {
	if r.c.dmask == nil {
		return 0
	}
	return r.c.dmask[r.i]
}

// OrDMask ORs bits into the sector dirty mask.
func (r Ref) OrDMask(v uint64) {
	if r.c.dmask == nil {
		if v == 0 {
			return
		}
		r.c.dmask = make([]uint64, len(r.c.tv))
	}
	r.c.dmask[r.i] |= v
}

// ClearDMask clears bits of the sector dirty mask.
func (r Ref) ClearDMask(v uint64) {
	if r.c.dmask == nil {
		return
	}
	r.c.dmask[r.i] &^= v
}

// Line returns a detached value snapshot of the referenced slot.
func (r Ref) Line() Line { return r.c.snapshot(int(r.i)) }

func (c *Cache) snapshot(i int) Line {
	l := Line{Tag: c.tv[i] >> 1, Valid: c.tv[i]&1 != 0, Dirty: c.meta[i]&metaDirty != 0}
	if c.vmask != nil {
		l.VMask = c.vmask[i]
	}
	if c.dmask != nil {
		l.DMask = c.dmask[i]
	}
	return l
}

// clearSlot zeroes one slot completely (tv, meta, sector masks).
func (c *Cache) clearSlot(i int) {
	c.tv[i] = 0
	c.meta[i] = 0
	if c.vmask != nil {
		c.vmask[i] = 0
	}
	if c.dmask != nil {
		c.dmask[i] = 0
	}
}

// Probe looks up an address without updating recency. A miss returns a Ref
// with Ok() == false.
func (c *Cache) Probe(a mem.Addr) Ref {
	si, tag := c.Index(a)
	base := si * c.Ways
	want := tag<<1 | 1
	tv := c.tv[base : base+c.Ways]
	for w := range tv {
		if tv[w] == want {
			return Ref{c, int32(base + w)}
		}
	}
	return noRef
}

// Lookup searches for an address, updating recency on a hit.
func (c *Cache) Lookup(a mem.Addr) Ref {
	si, tag := c.Index(a)
	base := si * c.Ways
	want := tag<<1 | 1
	tv := c.tv[base : base+c.Ways]
	for w := range tv {
		if tv[w] == want {
			i := base + w
			c.touch(base, i)
			return Ref{c, int32(i)}
		}
	}
	return noRef
}

// touch updates replacement metadata for a hit or install of line i in the
// set whose way group starts at base.
func (c *Cache) touch(base, i int) {
	switch c.Policy {
	case LRU, Rand:
		c.tick++
		c.meta[i] = c.meta[i]&(1<<lruShift-1) | uint64(c.tick)<<lruShift
	case SRRIP:
		c.meta[i] &^= rrpvMask // hit promotion (HP policy)
	case NRU:
		c.meta[i] |= metaNRU
		// if all ways are now recently-used, clear the others
		all := true
		for k := base; k < base+c.Ways; k++ {
			if k != i && c.tv[k]&1 != 0 && c.meta[k]&metaNRU == 0 {
				all = false
				break
			}
		}
		if all {
			for k := base; k < base+c.Ways; k++ {
				if k != i {
					c.meta[k] &^= metaNRU
				}
			}
		}
	}
}

// victimIndex returns the replacement slot for a set: an invalid way if one
// exists, else the policy victim. SRRIP may age the set's RRPVs in place.
func (c *Cache) victimIndex(si int) int {
	base := si * c.Ways
	tv := c.tv[base : base+c.Ways]
	meta := c.meta[base : base+c.Ways]
	switch c.Policy {
	case NRU:
		for w := range tv {
			if tv[w]&1 == 0 {
				return base + w
			}
		}
		for w := range meta {
			if meta[w]&metaNRU == 0 {
				return base + w
			}
		}
		return base
	case SRRIP:
		for w := range tv {
			if tv[w]&1 == 0 {
				return base + w
			}
		}
		// evict the first line with maximum RRPV (3), aging until one exists
		for {
			for w := range meta {
				if meta[w]&rrpvMask >= 3<<rrpvShift {
					return base + w
				}
			}
			for w := range meta {
				meta[w] += rrpvOne
			}
		}
	case Rand:
		for w := range tv {
			if tv[w]&1 == 0 {
				return base + w
			}
		}
		c.rng ^= c.rng >> 12
		c.rng ^= c.rng << 25
		c.rng ^= c.rng >> 27
		return base + int(c.rng%uint64(c.Ways))
	default: // LRU: one fused pass finds an invalid way or the oldest line
		vi, best := base, ^uint32(0)
		for w := range tv {
			if tv[w]&1 == 0 {
				return base + w
			}
			if lru := uint32(meta[w] >> lruShift); lru < best {
				vi, best = base+w, lru
			}
		}
		return vi
	}
}

// Victim returns the replacement candidate for an address: an invalid way if
// one exists, else the policy victim. Only SRRIP aging modifies the set.
func (c *Cache) Victim(a mem.Addr) Ref {
	si, _ := c.Index(a)
	return Ref{c, int32(c.victimIndex(si))}
}

// Insert installs an address, returning the evicted line contents (valid
// only if a real eviction occurred). The new line is marked recently used.
func (c *Cache) Insert(a mem.Addr, dirty bool) (evicted Line) {
	si, tag := c.Index(a)
	vi := c.victimIndex(si)
	if c.tv[vi]&1 != 0 {
		evicted = c.snapshot(vi)
	}
	c.tv[vi] = tag<<1 | 1
	var m uint64
	if dirty {
		m = metaDirty
	}
	c.meta[vi] = m
	if c.vmask != nil {
		c.vmask[vi] = 0
	}
	if c.dmask != nil {
		c.dmask[vi] = 0
	}
	if c.Policy == SRRIP {
		c.meta[vi] |= 2 << rrpvShift // long re-reference interval on insertion
	} else {
		c.touch(si*c.Ways, vi)
	}
	return evicted
}

// Invalidate removes an address if present, returning the removed line.
func (c *Cache) Invalidate(a mem.Addr) (Line, bool) {
	if r := c.Probe(a); r.Ok() {
		old := c.snapshot(int(r.i))
		c.clearSlot(int(r.i))
		return old, true
	}
	return Line{}, false
}

// LineAddr reconstructs the base line address of an entry in set si.
func (c *Cache) LineAddr(si int, tag uint64) mem.Addr {
	unit := tag<<c.setShift | uint64(si)
	return mem.Addr(unit * c.SetSkip << mem.LineShift)
}

// ForEach visits every valid line (used for BATMAN set disabling and tests).
func (c *Cache) ForEach(fn func(set int, r Ref)) {
	for si := 0; si < c.Sets; si++ {
		base := si * c.Ways
		for w := 0; w < c.Ways; w++ {
			if c.tv[base+w]&1 != 0 {
				fn(si, Ref{c, int32(base + w)})
			}
		}
	}
}

// ForEachInSet visits the valid lines of one set.
func (c *Cache) ForEachInSet(si int, fn func(r Ref)) {
	base := si * c.Ways
	for w := 0; w < c.Ways; w++ {
		if c.tv[base+w]&1 != 0 {
			fn(Ref{c, int32(base + w)})
		}
	}
}

// InvalidateSet clears an entire set, invoking fn for each valid line first.
func (c *Cache) InvalidateSet(si int, fn func(r Ref)) {
	base := si * c.Ways
	for w := 0; w < c.Ways; w++ {
		if c.tv[base+w]&1 != 0 {
			if fn != nil {
				fn(Ref{c, int32(base + w)})
			}
			c.clearSlot(base + w)
		}
	}
}

// Occupancy returns the fraction of valid lines.
func (c *Cache) Occupancy() float64 {
	n := 0
	for _, v := range c.tv {
		if v&1 != 0 {
			n++
		}
	}
	return float64(n) / float64(len(c.tv))
}
