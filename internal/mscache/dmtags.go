package mscache

import (
	"fmt"
	"math/bits"

	"dap/internal/ckpt"
	"dap/internal/mem"
)

// dmTags is the Alloy cache's direct-mapped tag store. A set holds one
// line, so there is no replacement state to keep: each set is one
// tag<<1|valid word, and its dirty and reused-since-fill bits live in two
// bitmaps, 64 sets to a word. Word g of the dirty bitmap covers sets
// 64g..64g+63, the span of one dirty-bit-cache entry, so a DBC refill reads
// a single word. Alloy never invalidates a line, so a dirty or reused bit
// only ever sits on a valid set.
type dmTags struct {
	tv     []uint64 // tag<<1 | valid, one word per set
	dirty  []uint64 // bit s%64 of word s/64: set s holds a dirty line
	reused []uint64 // bit s%64 of word s/64: set s was hit since its fill
	mask   uint64   // sets-1
	shift  uint     // log2(sets)
}

// dmVictim is the line an install displaced.
type dmVictim struct {
	addr                 mem.Addr
	valid, dirty, reused bool
}

// newDMTags builds an empty store. sets must be a positive power of two.
func newDMTags(sets int) *dmTags {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("mscache: direct-mapped set count must be a positive power of two")
	}
	words := (sets + 63) / 64
	return &dmTags{
		tv:     make([]uint64, sets),
		dirty:  make([]uint64, words),
		reused: make([]uint64, words),
		mask:   uint64(sets) - 1,
		shift:  uint(bits.TrailingZeros64(uint64(sets))),
	}
}

// index returns the set and tag of an address.
func (t *dmTags) index(a mem.Addr) (set int, tag uint64) {
	line := uint64(a) >> mem.LineShift
	return int(line & t.mask), line >> t.shift
}

// lookup returns an address's set and whether the line is present.
func (t *dmTags) lookup(a mem.Addr) (set int, hit bool) {
	set, tag := t.index(a)
	return set, t.tv[set] == tag<<1|1
}

// setDirty sets or clears the dirty bit of a set holding a line.
func (t *dmTags) setDirty(set int, d bool) {
	if d {
		t.dirty[set>>6] |= 1 << (set & 63)
	} else {
		t.dirty[set>>6] &^= 1 << (set & 63)
	}
}

// markReused records a hit on a set's line since its fill.
func (t *dmTags) markReused(set int) { t.reused[set>>6] |= 1 << (set & 63) }

// install places an address in its set, clean or dirty and not yet
// reused, and returns the line it displaced. The set's old contents are
// replaced whatever their tag, as a direct-mapped fill does.
func (t *dmTags) install(a mem.Addr, dirty bool) (v dmVictim) {
	set, tag := t.index(a)
	w, b := set>>6, uint64(1)<<(set&63)
	if old := t.tv[set]; old&1 != 0 {
		v = dmVictim{
			addr:   mem.Addr((old>>1<<t.shift | uint64(set)) << mem.LineShift),
			valid:  true,
			dirty:  t.dirty[w]&b != 0,
			reused: t.reused[w]&b != 0,
		}
	}
	t.tv[set] = tag<<1 | 1
	t.reused[w] &^= b
	t.setDirty(set, dirty)
	return v
}

// saveState writes the set count, the tag words and both bitmaps.
func (t *dmTags) saveState(e *ckpt.Enc) {
	e.U32(uint32(len(t.tv)))
	e.U64s(t.tv)
	e.U64s(t.dirty)
	e.U64s(t.reused)
}

// loadState restores state written by saveState into a store of the same
// set count; a different count returns an error and leaves the store as
// it was.
func (t *dmTags) loadState(d *ckpt.Dec) error {
	sets := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if sets != len(t.tv) {
		return fmt.Errorf("mscache: checkpoint has %d direct-mapped sets, built %d", sets, len(t.tv))
	}
	d.U64s(t.tv)
	d.U64s(t.dirty)
	d.U64s(t.reused)
	return d.Err()
}
