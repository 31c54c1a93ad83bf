package mscache

import (
	"fmt"

	"dap/internal/cache"
	"dap/internal/check"
	"dap/internal/mem"
)

// validSectorGeometry checks the sector parameters shared by the sectored
// DRAM and eDRAM caches: the per-block valid/dirty masks are 64-bit words,
// so a sector holds at most 64 lines, and the tag array's set count must be
// a positive power of two.
func validSectorGeometry(errs *check.Collector, capacity, sectorBytes, ways int) {
	errs.Positive("CapacityBytes", capacity)
	if sectorBytes < mem.LineBytes || sectorBytes%mem.LineBytes != 0 {
		errs.Addf("SectorBytes", sectorBytes, "must be a positive multiple of the %d B line", mem.LineBytes)
		return
	}
	if blocks := sectorBytes / mem.LineBytes; blocks > 64 {
		errs.Addf("SectorBytes", sectorBytes, "sector holds %d blocks; the valid/dirty masks support at most 64", blocks)
	}
	errs.Positive("Ways", ways)
	if capacity <= 0 || ways <= 0 {
		return
	}
	sets := capacity / sectorBytes / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		errs.Addf("CapacityBytes", capacity,
			"capacity/sector/ways = %d sets; must be a positive power of two", sets)
	}
}

// Validate checks the sectored DRAM cache configuration, including the
// embedded HBM array, reporting every problem at once.
func (c *SectoredConfig) Validate() error {
	var errs check.Collector
	validSectorGeometry(&errs, c.CapacityBytes, c.SectorBytes, c.Ways)
	if c.TagCacheEntries < 0 {
		errs.Addf("TagCacheEntries", c.TagCacheEntries, "must not be negative")
	} else if c.TagCacheEntries > 0 {
		if c.TagCacheWays <= 0 {
			errs.Addf("TagCacheWays", c.TagCacheWays, "must be positive when the tag cache is enabled")
		} else if sets := c.TagCacheEntries / c.TagCacheWays; c.TagCacheEntries%c.TagCacheWays != 0 || sets&(sets-1) != 0 {
			errs.Addf("TagCacheEntries", c.TagCacheEntries,
				"must be %d ways times a power-of-two set count", c.TagCacheWays)
		}
	}
	if c.Replacement > cache.Rand {
		errs.Addf("Replacement", c.Replacement, "unknown replacement policy")
	}
	if c.Footprint {
		errs.Positive("FootprintEntries", c.FootprintEntries)
	} else {
		errs.NonNegative("FootprintEntries", c.FootprintEntries)
	}
	errs.Sub("Array", c.Array.Validate())
	return errs.Err()
}

// Validate checks the Alloy cache configuration, reporting every problem at
// once.
func (c *AlloyConfig) Validate() error {
	var errs check.Collector
	errs.Positive("CapacityBytes", c.CapacityBytes)
	if c.TADBurst == 0 {
		errs.Addf("TADBurst", c.TADBurst, "must be positive")
	}
	if c.CapacityBytes > 0 {
		if sets := c.CapacityBytes / mem.LineBytes; sets <= 0 || sets&(sets-1) != 0 {
			errs.Addf("CapacityBytes", c.CapacityBytes,
				"capacity/line = %d direct-mapped sets; must be a positive power of two", sets)
		}
	}
	if c.DBCWays <= 0 {
		errs.Addf("DBCWays", c.DBCWays, "must be positive")
	} else if c.DBCEntries <= 0 || c.DBCEntries%c.DBCWays != 0 {
		errs.Addf("DBCEntries", c.DBCEntries, "must be a positive multiple of the %d ways", c.DBCWays)
	}
	errs.Sub("Array", c.Array.Validate())
	return errs.Err()
}

// Validate checks the sectored eDRAM cache configuration, including both
// channel sets, reporting every problem at once.
func (c *EDRAMConfig) Validate() error {
	var errs check.Collector
	validSectorGeometry(&errs, c.CapacityBytes, c.SectorBytes, c.Ways)
	errs.Sub("ReadArray", c.ReadArray.Validate())
	errs.Sub("WriteArray", c.WriteArray.Validate())
	if c.ReadArray.WriteOnly {
		errs.Addf("ReadArray.WriteOnly", true, "the read channel set cannot be write-only")
	}
	if c.WriteArray.ReadOnly {
		errs.Addf("WriteArray.ReadOnly", true, "the write channel set cannot be read-only")
	}
	return errs.Err()
}

// AuditInvariants checks the sectored cache's structural invariants: a
// dirty block must also be valid (DMask within VMask). It returns a
// description of the first violated line, or nil.
func (s *Sectored) AuditInvariants() error {
	return auditSectorMasks(s.tags)
}

// AuditInvariants checks the Alloy cache's metadata over the groups its
// dirty-bit cache holds, so a check costs the DBC's size, not the cache's:
// a valid DBC entry's bits must cover every dirty set of its group, or a
// forced miss could serve a dirty line's stale copy from main memory; and
// dirty and reused bits must sit only on valid sets. The DBC may call a
// clean set dirty (a functional-warmup fill replaces a dirty line without
// telling it), which only forgoes a forced miss.
func (a *Alloy) AuditInvariants() error {
	for e, gv := range a.dbc.gv {
		if gv&1 == 0 {
			continue
		}
		g := gv >> 1
		if g >= uint64(len(a.tags.dirty)) {
			return fmt.Errorf("alloy DBC entry %d holds group %d past the cache's %d groups", e, g, len(a.tags.dirty))
		}
		dirty := a.tags.dirty[g]
		if lost := dirty &^ a.dbc.bits[e]; lost != 0 {
			return fmt.Errorf("alloy DBC group %d: dirty sets %#x missing from the entry's bits %#x", g, lost, a.dbc.bits[e])
		}
		var valid uint64
		for i, tv := range a.tags.tv[g*64 : min(g*64+64, uint64(len(a.tags.tv)))] {
			valid |= (tv & 1) << i
		}
		if stray := (dirty | a.tags.reused[g]) &^ valid; stray != 0 {
			return fmt.Errorf("alloy group %d: dirty or reused bits %#x on invalid sets", g, stray)
		}
	}
	return nil
}

// auditSectorMasks scans a sector tag array for dirty bits set on invalid
// blocks — the signature of a lost or double-counted writeback.
func auditSectorMasks(tags *cache.Cache) error {
	for set := 0; set < tags.Sets; set++ {
		var bad error
		tags.ForEachInSet(set, func(l cache.Ref) {
			if bad == nil && l.DMask()&^l.VMask() != 0 {
				bad = fmt.Errorf("sector set %d tag %#x: dirty mask %#x exceeds valid mask %#x",
					set, l.Tag(), l.DMask(), l.VMask())
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}
