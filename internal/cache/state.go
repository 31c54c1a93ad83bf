package cache

import (
	"fmt"

	"dap/internal/ckpt"
)

// SaveState serializes the cache's complete mutable state — the packed tag
// and metadata arrays, the lazily-present sector masks, the recency tick,
// the random-victim RNG and the hit/miss counters — into a checkpoint
// section. Geometry (sets, ways, policy, set skip) is written first so
// LoadState can refuse a checkpoint taken under a different configuration.
// The packed arrays are written as bulk word arrays, and a side array that
// was never allocated writes a single absence flag instead of a block of
// zeros, so ordinary caches checkpoint at 16 bytes per line.
func (c *Cache) SaveState(e *ckpt.Enc) {
	e.U32(uint32(c.Sets))
	e.U32(uint32(c.Ways))
	e.U8(uint8(c.Policy))
	e.U64(c.SetSkip)
	e.U32(c.tick)
	e.U64(c.rng)
	e.U64(c.Stats.Hits)
	e.U64(c.Stats.Misses)
	e.U64(c.Stats.Evictions)
	e.U64(c.Stats.DirtyEvic)
	e.U64s(c.tv)
	e.U64s(c.meta)
	e.Bool(c.vmask != nil)
	if c.vmask != nil {
		e.U64s(c.vmask)
	}
	e.Bool(c.dmask != nil)
	if c.dmask != nil {
		e.U64s(c.dmask)
	}
}

// LoadState restores state saved by SaveState. The receiver must have been
// constructed with the same geometry; a mismatch returns an error without
// modifying the cache.
func (c *Cache) LoadState(d *ckpt.Dec) error {
	sets, ways := int(d.U32()), int(d.U32())
	policy, skip := ReplPolicy(d.U8()), d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if sets != c.Sets || ways != c.Ways || policy != c.Policy || skip != c.SetSkip {
		return fmt.Errorf("cache: checkpoint geometry %d sets x %d ways policy %d skip %d != built %d x %d policy %d skip %d",
			sets, ways, policy, skip, c.Sets, c.Ways, c.Policy, c.SetSkip)
	}
	c.tick = d.U32()
	c.rng = d.U64()
	c.Stats.Hits = d.U64()
	c.Stats.Misses = d.U64()
	c.Stats.Evictions = d.U64()
	c.Stats.DirtyEvic = d.U64()
	d.U64s(c.tv)
	d.U64s(c.meta)
	if d.Bool() {
		if c.vmask == nil {
			c.vmask = make([]uint64, len(c.tv))
		}
		d.U64s(c.vmask)
	} else {
		c.vmask = nil
	}
	if d.Bool() {
		if c.dmask == nil {
			c.dmask = make([]uint64, len(c.tv))
		}
		d.U64s(c.dmask)
	} else {
		c.dmask = nil
	}
	return d.Err()
}
