package dram

import (
	"dap/internal/mem"
	"dap/internal/sim"
)

// FaultAction is a fault-injection verdict for one request: drop its
// response (the access still occupies bandwidth, but the data never
// arrives) and/or delay its completion by ExtraDelay cycles.
type FaultAction struct {
	DropResponse bool
	ExtraDelay   mem.Cycle
}

// FaultHook inspects the kind of every enqueued request and returns the
// fault (if any) to inject. The zero FaultAction leaves the request
// untouched.
type FaultHook func(mem.Kind) FaultAction

// Device is a multi-channel DRAM bandwidth source. Lines are interleaved
// across channels at 64 B granularity; banks are selected from higher
// address bits XOR-folded with the row index to spread conflicts.
type Device struct {
	Cfg      Config
	eng      *sim.Engine
	channels []*channel

	rowLines uint64 // lines per row

	// Kinds counts accesses by kind for bandwidth attribution.
	Kinds [8]uint64

	// Fault, when non-nil, is consulted on every enqueue (fault injection).
	Fault FaultHook
}

// NewDeviceE builds a device from a configuration, rejecting one whose
// derived timings would divide by zero or route addresses nonsensically.
func NewDeviceE(cfg Config, eng *sim.Engine) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{Cfg: cfg, eng: eng, rowLines: uint64(cfg.RowBytes / mem.LineBytes)}
	for i := 0; i < cfg.Channels; i++ {
		d.channels = append(d.channels, newChannel(&d.Cfg, eng))
	}
	return d, nil
}

// NewDevice builds a device from a configuration; it panics on an invalid
// one (use NewDeviceE, or validate the enclosing system configuration, to
// get structured errors instead).
func NewDevice(cfg Config, eng *sim.Engine) *Device {
	d, err := NewDeviceE(cfg, eng)
	if err != nil {
		panic("dram: " + err.Error())
	}
	return d
}

// route decodes an address into channel, bank and row.
func (d *Device) route(a mem.Addr) (ch, bk int, row int64) {
	line := uint64(a.Line())
	nch := uint64(len(d.channels))
	ch = int(line % nch)
	inCh := line / nch
	r := inCh / d.rowLines
	nbk := uint64(d.Cfg.Banks)
	bk = int((r ^ (r >> 4)) % nbk)
	return ch, bk, int64(r)
}

// Access queues one 64-byte access of kind k to address a. done, if
// non-nil, fires once when the access completes (data returned for reads;
// accepted for writes).
func (d *Device) Access(a mem.Addr, k mem.Kind, done func(mem.Cycle)) {
	d.access(a, k, 0, nil, done)
}

// AccessBurst is Access with an explicit burst-length override in device
// cycles (0 means the config default), for the mscache controllers'
// tag-and-data transactions, which transfer more than one line per CAS.
func (d *Device) AccessBurst(a mem.Addr, k mem.Kind, burst uint8, done func(mem.Cycle)) {
	d.access(a, k, burst, nil, done)
}

// AccessTraced is Access with an observability issue hook attached: onIssue
// (if non-nil) receives the request's in-queue wait when its data burst is
// scheduled. Timing is identical to Access.
func (d *Device) AccessTraced(a mem.Addr, k mem.Kind, onIssue, done func(mem.Cycle)) {
	d.access(a, k, 0, onIssue, done)
}

// access routes one request to its channel and queues it there by value.
// The fault hook lives on a separate non-inlined path so the fault-free
// common case stays branch-light.
func (d *Device) access(a mem.Addr, k mem.Kind, burst uint8, onIssue, done func(mem.Cycle)) {
	if d.Fault != nil {
		done = d.fault(k, done)
	}
	d.Kinds[k]++
	ch, bk, row := d.route(a)
	d.channels[ch].enqueue(k.IsWrite(), queued{row: row, done: done, onIssue: onIssue, bank: int32(bk), burst: burst})
}

// fault consults the fault hook and returns the completion to queue
// according to its verdict: a dropped response loses done (the transfer
// still happens, so the bandwidth is spent, but the waiter never wakes); a
// delay defers it.
//
//go:noinline
func (d *Device) fault(k mem.Kind, done func(mem.Cycle)) func(mem.Cycle) {
	act := d.Fault(k)
	switch {
	case act.DropResponse:
		return nil
	case act.ExtraDelay > 0 && done != nil:
		extra := act.ExtraDelay
		return func(t mem.Cycle) {
			d.eng.After(extra, func() { done(t + extra) })
		}
	}
	return done
}

// TotalCAS returns the cumulative column accesses across channels.
func (d *Device) TotalCAS() uint64 {
	var n uint64
	for _, ch := range d.channels {
		n += ch.stats.Reads + ch.stats.Writes
	}
	return n
}

// QueueLen returns the total queued requests across channels.
func (d *Device) QueueLen() int {
	n := 0
	for _, ch := range d.channels {
		n += ch.queueLen()
	}
	return n
}

// Stats sums channel statistics.
func (d *Device) Stats() ChannelStats {
	var s ChannelStats
	for _, ch := range d.channels {
		s.Reads += ch.stats.Reads
		s.Writes += ch.stats.Writes
		s.RowHits += ch.stats.RowHits
		s.RowMisses += ch.stats.RowMisses
		s.BusyCycles += ch.stats.BusyCycles
		s.ReadLatSum += ch.stats.ReadLatSum
		s.Refreshes += ch.stats.Refreshes
	}
	return s
}

// ResetStats clears all channel statistics (used after warmup).
func (d *Device) ResetStats() {
	for _, ch := range d.channels {
		ch.stats = ChannelStats{}
	}
	d.Kinds = [8]uint64{}
}
