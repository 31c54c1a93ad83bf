package mscache

import (
	"dap/internal/dram"
	"dap/internal/mem"
)

// This file holds the pooled continuation records the controllers hand to
// the DRAM devices and the engine in place of captured closures. Each
// record carries the state its completion needs plus a callback field
// prebound to the record's own method — the one closure allocation happens
// when the record is first created, and every reuse after that is free.
// Pools are per-controller LIFO free lists: a controller lives on one
// engine goroutine, so recycling is deterministic and needs no locking.
//
// Reentrancy rule: a completion method copies the fields it needs to
// locals and returns its record to the free list *before* dispatching, so
// the record can be reissued by anything the dispatch reaches.

// fwdPool recycles victim-forwarders: the completion of a victim read from
// the cache array that turns into a main-memory writeback of the same
// block (the read→write chain both controllers use to evict dirty data).
type fwdPool struct {
	mm   *dram.Device
	free []*fwdOp
}

type fwdOp struct {
	p  *fwdPool
	a  mem.Addr
	cb func(mem.Cycle)
}

// forward returns a callback that, when fired, writes block a back to main
// memory.
func (p *fwdPool) forward(a mem.Addr) func(mem.Cycle) {
	var f *fwdOp
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		f = &fwdOp{p: p}
		f.cb = f.run
	}
	f.a = a
	return f.cb
}

func (f *fwdOp) run(mem.Cycle) {
	p, a := f.p, f.a
	p.free = append(p.free, f)
	p.mm.Access(a, mem.WritebackKind, nil)
}
