package mscache

import (
	"fmt"

	"dap/internal/ckpt"
)

// Checkpoint serialization for the three memory-side cache controllers.
// Functional warmup (WarmRead/WarmWriteback) mutates only the structures
// serialized here: the sector/line tag arrays (including per-block
// valid/dirty masks and replacement metadata), the SRAM tag cache, the
// footprint history table and the Alloy dirty-bit cache. The Alloy hit and
// fill predictors, SBD and BATMAN train only on timed traffic, and the
// per-window demand counters and MemSideStats are reset by the harness
// before measurement on both the straight and the resumed path, so none of
// them is serialized.

// SaveState serializes the sectored DRAM cache's warmup-visible state.
func (s *Sectored) SaveState(e *ckpt.Enc) {
	s.tags.SaveState(e)
	e.Bool(s.tagCache != nil)
	if s.tagCache != nil {
		s.tagCache.SaveState(e)
	}
	saveFootprint(e, s.fp)
}

// LoadState restores state saved by SaveState.
func (s *Sectored) LoadState(d *ckpt.Dec) error {
	if err := s.tags.LoadState(d); err != nil {
		return fmt.Errorf("mscache: sectored tags: %w", err)
	}
	hadTC := d.Bool()
	if hadTC != (s.tagCache != nil) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("mscache: checkpoint tag cache presence %v != built %v", hadTC, s.tagCache != nil)
	}
	if s.tagCache != nil {
		if err := s.tagCache.LoadState(d); err != nil {
			return fmt.Errorf("mscache: sectored tag cache: %w", err)
		}
	}
	return loadFootprint(d, s.fp)
}

// SaveState serializes the Alloy cache's warmup-visible state.
func (a *Alloy) SaveState(e *ckpt.Enc) {
	a.tags.saveState(e)
	e.U32(uint32(a.dbc.sets))
	e.U32(uint32(a.dbc.ways))
	e.U64(a.dbc.tick)
	e.U64s(a.dbc.gv)
	e.U64s(a.dbc.bits)
	e.U64s(a.dbc.lru)
}

// LoadState restores state saved by SaveState.
func (a *Alloy) LoadState(d *ckpt.Dec) error {
	if err := a.tags.loadState(d); err != nil {
		return fmt.Errorf("mscache: alloy tags: %w", err)
	}
	sets, ways := int(d.U32()), int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if sets != a.dbc.sets || ways != a.dbc.ways {
		return fmt.Errorf("mscache: checkpoint DBC %dx%d != built %dx%d", sets, ways, a.dbc.sets, a.dbc.ways)
	}
	a.dbc.tick = d.U64()
	d.U64s(a.dbc.gv)
	d.U64s(a.dbc.bits)
	d.U64s(a.dbc.lru)
	return d.Err()
}

// SaveState serializes the eDRAM cache's warmup-visible state.
func (e *EDRAM) SaveState(enc *ckpt.Enc) {
	e.tags.SaveState(enc)
}

// LoadState restores state saved by SaveState.
func (e *EDRAM) LoadState(d *ckpt.Dec) error {
	if err := e.tags.LoadState(d); err != nil {
		return fmt.Errorf("mscache: edram tags: %w", err)
	}
	return nil
}

// saveFootprint serializes the footprint history table slot for slot: the
// key and mask arrays verbatim, so a restored table probes, fills and
// evicts exactly like the saved one. A cache built without the prefetcher
// (nil table) saves only an absent flag.
func saveFootprint(e *ckpt.Enc, f *footprintTable) {
	e.Bool(f != nil)
	if f == nil {
		return
	}
	e.U64s(f.keys)
	e.U64s(f.vals)
}

func loadFootprint(d *ckpt.Dec, f *footprintTable) error {
	had := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if had != (f != nil) {
		return fmt.Errorf("mscache: checkpoint footprint table presence %v != built %v", had, f != nil)
	}
	if f == nil {
		return nil
	}
	d.U64s(f.keys)
	d.U64s(f.vals)
	// n counts occupied slots: record only ever fills an empty slot or
	// overwrites an occupied one.
	f.n = 0
	for _, k := range f.keys {
		if k != 0 {
			f.n++
		}
	}
	return d.Err()
}
