package policy

import (
	"cmp"
	"fmt"
	"slices"

	"dap/internal/ckpt"
	"dap/internal/mem"
)

// Checkpoint serialization for the policy state machines. Functional warmup
// never invokes SBD or BATMAN (they only observe the timed datapath), so at
// warmup-checkpoint time both are in their freshly-constructed state; they
// are serialized anyway so a checkpoint is a complete simulator snapshot
// and the format does not have to change if a future warmup path starts
// training them.

// SaveState serializes the SBD decision state: the counting Bloom filter
// bank, the Dirty List (sorted by page, so the bytes depend only on the
// listed pages and counts, never on the heap layout), the hit-predictor
// EWMA and the decay bookkeeping.
func (s *SBD) SaveState(e *ckpt.Enc) {
	e.U32(uint32(len(s.counters)))
	for _, c := range s.counters {
		e.U8(c)
	}
	list := slices.Clone(s.heap)
	slices.SortFunc(list, func(a, b dirtyEntry) int { return cmp.Compare(a.page, b.page) })
	e.U32(uint32(len(list)))
	for _, d := range list {
		e.U64(uint64(d.page))
		e.U32(d.count)
	}
	e.U32(s.hitEWMA)
	e.U64(s.writes)
	e.U64(s.SteeredMM)
	e.U64(s.Promotions)
	e.U64(s.Cleanings)
}

// LoadState restores state saved by SaveState.
func (s *SBD) LoadState(d *ckpt.Dec) error {
	if n := int(d.U32()); n != len(s.counters) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("policy: SBD checkpoint has %d counters, built %d", n, len(s.counters))
	}
	for i := range s.counters {
		s.counters[i] = d.U8()
	}
	n := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	s.heap = make([]dirtyEntry, n)
	s.slot = make(map[mem.Addr]int32, n)
	for i := range s.heap {
		p := mem.Addr(d.U64())
		if _, dup := s.slot[p]; dup {
			if err := d.Err(); err != nil {
				return err
			}
			return fmt.Errorf("policy: SBD checkpoint lists page %#x twice", uint64(p))
		}
		s.heap[i] = dirtyEntry{page: p, count: d.U32()}
		s.slot[p] = int32(i)
	}
	s.heapify()
	s.hitEWMA = d.U32()
	s.writes = d.U64()
	s.SteeredMM = d.U64()
	s.Promotions = d.U64()
	s.Cleanings = d.U64()
	return d.Err()
}

// SaveState serializes BATMAN's adaptive state: the disabled-set watermark,
// the in-epoch hit/lookup counters and the epoch statistics.
func (b *BATMAN) SaveState(e *ckpt.Enc) {
	e.U32(uint32(b.sets))
	e.U32(uint32(b.disabled))
	e.U64(b.hits)
	e.U64(b.lookups)
	e.U64(b.Epochs)
	e.U64(b.DisableOps)
	e.U64(b.EnableOps)
}

// LoadState restores state saved by SaveState.
func (b *BATMAN) LoadState(d *ckpt.Dec) error {
	if n := int(d.U32()); n != b.sets {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("policy: BATMAN checkpoint has %d sets, built %d", n, b.sets)
	}
	b.disabled = int(d.U32())
	b.hits = d.U64()
	b.lookups = d.U64()
	b.Epochs = d.U64()
	b.DisableOps = d.U64()
	b.EnableOps = d.U64()
	return d.Err()
}
