package cpu

import (
	"fmt"

	"dap/internal/ckpt"
	"dap/internal/mem"
	"dap/internal/workload"
)

// Checkpoint serialization for the processor complex. A warmup checkpoint is
// taken after functional warmup and before timed execution, so the only CPU
// state that exists is functional: the private L1/L2 and shared L3 contents,
// the per-core stride-prefetcher training state, the pending access and its
// program-order position, and the workload stream cursors. Timed-execution
// state (in-flight loads, MSHRs, outstanding prefetches, wake events) is
// asserted empty at save time and is reconstructed as empty by Build on
// restore.

// SaveState serializes the post-warmup CPU state into a checkpoint section.
// It returns an error if any core has timed state in flight (the checkpoint
// would not be a pure warmup snapshot) or a core's stream does not support
// checkpointing.
func (c *CPU) SaveState(e *ckpt.Enc) error {
	e.U32(uint32(len(c.cores)))
	c.l3.saveState(e)
	for _, co := range c.cores {
		if len(co.inflight) != 0 || len(co.mshr) != 0 || co.pfOut != 0 || co.wakeSet {
			return fmt.Errorf("cpu: core %d has timed state in flight; checkpoint must be taken before Start", co.id)
		}
		ss, ok := co.stream.(workload.StatefulStream)
		if !ok {
			return fmt.Errorf("cpu: core %d stream %T does not support checkpointing", co.id, co.stream)
		}
		co.l1.saveState(e)
		co.l2.saveState(e)
		co.pf.saveState(e)
		e.U64(uint64(co.pend.Addr))
		e.Bool(co.pend.Store)
		e.Bool(co.pend.Dependent)
		e.U32(co.pend.Gap)
		e.U64(co.pendPos)
		ss.SaveState(e)
	}
	return nil
}

// LoadState restores state saved by SaveState into a freshly built CPU with
// identical configuration and attached streams.
func (c *CPU) LoadState(d *ckpt.Dec) error {
	if n := int(d.U32()); n != len(c.cores) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("cpu: checkpoint has %d cores, built %d", n, len(c.cores))
	}
	if err := c.l3.loadState(d); err != nil {
		return fmt.Errorf("cpu: l3: %w", err)
	}
	for _, co := range c.cores {
		ss, ok := co.stream.(workload.StatefulStream)
		if !ok {
			return fmt.Errorf("cpu: core %d stream %T does not support checkpointing", co.id, co.stream)
		}
		if err := co.l1.loadState(d); err != nil {
			return fmt.Errorf("cpu: core %d l1: %w", co.id, err)
		}
		if err := co.l2.loadState(d); err != nil {
			return fmt.Errorf("cpu: core %d l2: %w", co.id, err)
		}
		if err := co.pf.loadState(d); err != nil {
			return fmt.Errorf("cpu: core %d prefetcher: %w", co.id, err)
		}
		co.pend.Addr = mem.Addr(d.U64())
		co.pend.Store = d.Bool()
		co.pend.Dependent = d.Bool()
		co.pend.Gap = d.U32()
		co.pendPos = d.U64()
		if err := ss.LoadState(d); err != nil {
			return fmt.Errorf("cpu: core %d stream: %w", co.id, err)
		}
	}
	return d.Err()
}

// saveState serializes the prefetcher's training state, one record per
// stream: valid, region, lastLine, stride, confident, ahead, last use.
func (p *stridePrefetcher) saveState(e *ckpt.Enc) {
	e.U32(uint32(len(p.tags)))
	e.U64(p.issued)
	for i, tag := range p.tags {
		s := &p.train[i]
		e.Bool(tag != 0)
		e.U64(uint64(tag &^ 1))
		e.I64(s.lastLine)
		e.I64(s.stride)
		e.Bool(s.confident)
		e.I64(s.ahead)
		e.U64(p.stamps[i])
	}
}

// loadState restores prefetcher training state saved by saveState.
func (p *stridePrefetcher) loadState(d *ckpt.Dec) error {
	if n := int(d.U32()); n != len(p.tags) {
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("prefetcher has %d streams, checkpoint %d", len(p.tags), n)
	}
	p.issued = d.U64()
	for i := range p.tags {
		s := &p.train[i]
		valid, region := d.Bool(), mem.Addr(d.U64())
		p.tags[i] = 0
		if valid {
			p.tags[i] = region | 1
		}
		s.lastLine = d.I64()
		s.stride = d.I64()
		s.confident = d.Bool()
		s.ahead = d.I64()
		p.stamps[i] = d.U64()
	}
	return d.Err()
}
