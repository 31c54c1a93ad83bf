package cpu

import (
	"fmt"
	"math/bits"

	"dap/internal/ckpt"
	"dap/internal/mem"
)

// maxWays is the most ways an sram set can hold: its order word ranks the
// ways in 4-bit fields, and its valid and dirty bitmaps are 16 bits wide.
const maxWays = 16

// nibbles has a 1 in every 4-bit field of a word.
const nibbles = 0x1111111111111111

// sram is one level of the L1/L2/L3 hierarchy: a tag-only, LRU,
// set-associative store of 64 B lines with at most maxWays ways. A line
// maps to set line%sets with tag line/sets. Each set is a block of ways+2
// words:
//
//   - ways tag words, tag<<1|1 for a valid line and 0 for an invalid one,
//     so a probe is one 64-bit compare per way;
//   - the order word: every way number of the set in recency order, 4 bits
//     each, the most recently touched in the low field;
//   - the flags word: the valid bitmap in bits 0-15, the dirty bitmap in
//     bits 16-31.
//
// A touch moves a way's field to the front of the order word. A victim is
// the lowest invalid way, or else the way ranked last, which is the least
// recently touched: a set only fills through inserts, each of which
// touches the way it fills. That is the line an LRU cache.Cache picks.
type sram struct {
	w        []uint64 // sets*(ways+2) words
	ways     int
	setMask  uint64 // sets-1
	setShift uint   // log2(sets)
	full     uint64 // valid bitmap of a full set
}

// newSRAM builds an empty store of the given capacity. The set count is
// capacity/64/ways rounded down to a power of two, as cache.NewBytes
// rounds it. ways must be in [1, maxWays] and capacity must hold one line
// per way (Config.Validate checks both).
func newSRAM(capacity, ways int) *sram {
	if ways < 1 || ways > maxWays || capacity < mem.LineBytes*ways {
		panic("cpu: sram needs 1 to 16 ways and a line per way")
	}
	sets := 1 << (bits.Len(uint(capacity/mem.LineBytes/ways)) - 1)
	s := &sram{
		w:        make([]uint64, sets*(ways+2)),
		ways:     ways,
		setMask:  uint64(sets) - 1,
		setShift: uint(bits.TrailingZeros(uint(sets))),
		full:     1<<ways - 1,
	}
	s.reset()
	return s
}

// reset empties every set and ranks its ways in way order.
func (s *sram) reset() {
	var order uint64
	for w := s.ways - 1; w >= 0; w-- {
		order = order<<4 | uint64(w)
	}
	clear(s.w)
	for base := 0; base < len(s.w); base += s.ways + 2 {
		s.w[base+s.ways] = order
	}
}

// sets returns the set count.
func (s *sram) sets() int { return int(s.setMask) + 1 }

// find returns the first word of a's set and the way holding a, or -1.
func (s *sram) find(a mem.Addr) (base, way int) {
	line := uint64(a) >> mem.LineShift
	base = int(line&s.setMask) * (s.ways + 2)
	want := line>>s.setShift<<1 | 1
	for w, tv := range s.w[base : base+s.ways] {
		if tv == want {
			return base, w
		}
	}
	return base, -1
}

// probe reports whether a is present, leaving its recency alone. If it is
// and dirty is set, the line is marked dirty.
func (s *sram) probe(a mem.Addr, dirty bool) bool {
	base, way := s.find(a)
	if way < 0 {
		return false
	}
	if dirty {
		s.w[base+s.ways+1] |= 1 << (16 + way)
	}
	return true
}

// lookup is probe plus a touch: a hit also becomes the set's most recently
// used line.
func (s *sram) lookup(a mem.Addr, dirty bool) bool {
	base, way := s.find(a)
	if way < 0 {
		return false
	}
	if dirty {
		s.w[base+s.ways+1] |= 1 << (16 + way)
	}
	s.touch(base, way)
	return true
}

// touch moves way to the front of the order word of the set at base. The
// lowest zero field of order^(way*nibbles) is way's rank: below the first
// zero field no subtraction borrows, so the zero-field test finds no false
// match there.
func (s *sram) touch(base, way int) {
	o := s.w[base+s.ways]
	x := o ^ uint64(way)*nibbles
	p := uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
	below := uint64(1)<<p - 1
	s.w[base+s.ways] = o&^(below<<4|0xF) | (o&below)<<4 | uint64(way)
}

// insert fills a, which must be absent, clean or dirty, into its set's
// victim way and makes it the most recently used line. It returns the line
// it displaced, if the way held one.
func (s *sram) insert(a mem.Addr, dirty bool) (victim mem.Addr, evicted, victimDirty bool) {
	line := uint64(a) >> mem.LineShift
	set := line & s.setMask
	base := int(set) * (s.ways + 2)
	flags := s.w[base+s.ways+1]
	var way int
	if inv := ^flags & s.full; inv != 0 {
		way = bits.TrailingZeros64(inv)
	} else {
		way = int(s.w[base+s.ways] >> (4 * (s.ways - 1)) & 0xF)
	}
	bit := uint64(1) << way
	if flags&bit != 0 {
		victim = mem.Addr((s.w[base+way]>>1<<s.setShift | set) << mem.LineShift)
		evicted, victimDirty = true, flags&(bit<<16) != 0
	}
	s.w[base+way] = line>>s.setShift<<1 | 1
	flags = flags&^(bit<<16) | bit
	if dirty {
		flags |= bit << 16
	}
	s.w[base+s.ways+1] = flags
	s.touch(base, way)
	return victim, evicted, victimDirty
}

// invalidate removes a if present, reporting whether it was and whether
// it was dirty.
func (s *sram) invalidate(a mem.Addr) (present, dirty bool) {
	base, way := s.find(a)
	if way < 0 {
		return false, false
	}
	bit := uint64(1) << way
	dirty = s.w[base+s.ways+1]&(bit<<16) != 0
	s.w[base+s.ways+1] &^= bit | bit<<16
	s.w[base+way] = 0
	return true, dirty
}

// saveState writes the geometry and every set's words.
func (s *sram) saveState(e *ckpt.Enc) {
	e.U32(uint32(s.sets()))
	e.U32(uint32(s.ways))
	e.U64s(s.w)
}

// loadState restores state written by saveState into a store of the same
// geometry; a different geometry returns an error and leaves the store as
// it was. It also refuses words no sequence of operations produces, since
// the order word's fields index the set: an order word that does not rank
// every way exactly once, a valid or dirty bit outside the set, a dirty
// invalid way, or a tag word that disagrees with its valid bit. The store
// is then left empty.
func (s *sram) loadState(d *ckpt.Dec) error {
	sets, ways := int(d.U32()), int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if sets != s.sets() || ways != s.ways {
		return fmt.Errorf("checkpoint geometry %d sets x %d ways, built %d x %d", sets, ways, s.sets(), s.ways)
	}
	d.U64s(s.w)
	err := d.Err()
	for base := 0; err == nil && base < len(s.w); base += ways + 2 {
		order, flags := s.w[base+ways], s.w[base+ways+1]
		var ranked uint64
		for r := 0; r < ways; r++ {
			ranked |= 1 << (order >> (4 * r) & 0xF)
		}
		ok := ranked == s.full && order>>(4*ways) == 0 &&
			flags&^(s.full|s.full<<16) == 0 && flags>>16&^flags == 0
		for way, tv := range s.w[base : base+ways] {
			ok = ok && (tv != 0) == (flags>>way&1 != 0) && (tv == 0 || tv&1 != 0)
		}
		if !ok {
			err = fmt.Errorf("set %d: inconsistent tag, order or flag words", base/(ways+2))
		}
	}
	if err != nil {
		s.reset()
	}
	return err
}
