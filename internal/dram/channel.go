package dram

import (
	"dap/internal/mem"
	"dap/internal/sim"
)

// bank tracks row-buffer state and when its next data burst may start.
type bank struct {
	openRow  int64 // -1 when closed
	nextData mem.Cycle
	actAt    mem.Cycle // last activation time (for tRAS)
}

// queued is a request waiting in a channel queue, held by value: the
// queue it sits in says whether it is a read or a write, and these fields
// are everything issue needs. burst overrides the data-bus occupancy in
// device clocks when non-zero (the Alloy cache's 72 B TADs occupy three
// HBM clocks instead of two). done, if non-nil, fires once when the access
// completes; onIssue, if non-nil, receives the time the request spent
// queued when its data burst is scheduled, and must never influence
// timing.
type queued struct {
	row      int64
	enqueued mem.Cycle
	done     func(mem.Cycle)
	onIssue  func(mem.Cycle)
	bank     int32
	burst    uint8
}

// window is how many of the oldest queued requests the scheduler considers
// for issue.
const window = 16

// reqQueue is a FIFO of queued requests whose live entries are
// buf[head:]. The scheduler only ever removes one of the oldest window
// entries, so removal shifts the entries in front of it one slot toward
// the tail and advances head: O(window) instead of shifting the whole
// backlog. Dead head slots are reclaimed by compacting when a push finds
// the buffer full and at least half of it dead; otherwise the push grows
// the buffer, so capacity stays within a small multiple of the peak depth
// and a steady stream allocates nothing.
type reqQueue struct {
	buf  []queued
	head int
}

func (q *reqQueue) len() int { return len(q.buf) - q.head }

// live returns the queued requests, oldest first.
func (q *reqQueue) live() []queued { return q.buf[q.head:] }

func (q *reqQueue) push(e queued) {
	if len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, e)
}

// remove takes out live entry i, keeping the others in FIFO order. The
// vacated head slot is cleared so it no longer holds the callbacks.
func (q *reqQueue) remove(i int) queued {
	live := q.buf[q.head:]
	e := live[i]
	for ; i > 0; i-- { // at most window-1 moves; no runtime copy call
		live[i] = live[i-1]
	}
	live[0] = queued{}
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return e
}

// ChannelStats aggregates per-channel activity.
type ChannelStats struct {
	Reads      uint64
	Writes     uint64
	RowHits    uint64
	RowMisses  uint64
	BusyCycles mem.Cycle // data-bus occupancy
	ReadLatSum mem.Cycle // enqueue-to-data latency, reads only
}

// CAS returns the total column accesses performed.
func (s ChannelStats) CAS() uint64 { return s.Reads + s.Writes }

// Horizon is how far ahead of real time data-bus slots may be reserved, in
// CPU cycles. It lets row activations and precharges on different banks
// proceed under an ongoing transfer, which is what gives DRAM its bank-level
// parallelism.
const Horizon mem.Cycle = 240

// channel is a single DRAM channel with a private data bus and banks.
type channel struct {
	cfg    *Config
	eng    *sim.Engine
	banks  []bank
	readQ  reqQueue
	writeQ reqQueue

	busFree   mem.Cycle
	draining  bool // write-drain mode
	lastWrite bool // last burst was a write (turnaround tracking)
	scheduled bool
	stats     ChannelStats

	// latencies precomputed in CPU cycles
	tCAS, tRCD, tRP, tRAS, burst, io, turn mem.Cycle
}

func newChannel(cfg *Config, eng *sim.Engine) *channel {
	ch := &channel{
		cfg: cfg, eng: eng, banks: make([]bank, cfg.Banks),
		// Queues sized for the usual backlog up front: growing them from
		// nil one doubling at a time was the largest allocation site of a
		// freshly built device.
		readQ:  reqQueue{buf: make([]queued, 0, 64)},
		writeQ: reqQueue{buf: make([]queued, 0, 64)},
	}
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	ch.tCAS = cfg.cpuCycles(cfg.TCAS)
	ch.tRCD = cfg.cpuCycles(cfg.TRCD)
	ch.tRP = cfg.cpuCycles(cfg.TRP)
	ch.tRAS = cfg.cpuCycles(cfg.TRAS)
	ch.burst = cfg.cpuCycles(cfg.BurstCycles)
	ch.io = cfg.cpuCycles(cfg.IOCycles)
	ch.turn = cfg.cpuCycles(cfg.TurnaroundCycles)
	return ch
}

// enqueue queues e, whose bank and row the device has decoded, on the
// write queue if write is set and the channel has one, else on the read
// queue.
func (ch *channel) enqueue(write bool, e queued) {
	e.enqueued = ch.eng.Now()
	if write && !ch.cfg.ReadOnly {
		ch.writeQ.push(e)
	} else {
		ch.readQ.push(e)
	}
	ch.kick(ch.eng.Now())
}

// queueLen reports pending requests (used by SBD's latency estimate).
func (ch *channel) queueLen() int { return ch.readQ.len() + ch.writeQ.len() }

func (ch *channel) kick(at mem.Cycle) {
	if ch.scheduled {
		return
	}
	ch.scheduled = true
	// AtArg with a top-level handler: forming the method value ch.schedule
	// here allocated a closure per kick, which profiling showed was the
	// single largest allocation site in the whole simulator (~36%).
	ch.eng.AtArg(at, chanSchedule, ch, 0)
}

// chanSchedule is the typed scheduler-kick handler (see kick).
func chanSchedule(ctx any, _ uint64, _ mem.Cycle) { ctx.(*channel).schedule() }

// estStart estimates the earliest data-bus start for a queued request if it
// were issued now.
func (ch *channel) estStart(e *queued, now mem.Cycle) mem.Cycle {
	b := &ch.banks[e.bank]
	var ready mem.Cycle
	switch {
	case b.openRow == e.row:
		ready = now + ch.tCAS
	case b.openRow == -1:
		ready = now + ch.tRCD + ch.tCAS
	default:
		pre := maxCycle(now, b.actAt+ch.tRAS)
		ready = pre + ch.tRP + ch.tRCD + ch.tCAS
	}
	return maxCycle(maxCycle(ready, b.nextData), ch.busFree)
}

// pick selects the issuable request with the earliest achievable data start
// among the oldest window entries (FR-FCFS: row hits to ready banks win).
func (ch *channel) pick(q []queued, now mem.Cycle) int {
	n := len(q)
	if n > window {
		n = window
	}
	best, bestStart := 0, ch.estStart(&q[0], now)
	for i := 1; i < n; i++ {
		if s := ch.estStart(&q[i], now); s < bestStart {
			best, bestStart = i, s
		}
	}
	return best
}

// selectQueue applies write-batching hysteresis and returns the queue to
// serve next (nil when idle).
func (ch *channel) selectQueue() *reqQueue {
	if ch.cfg.WriteOnly {
		if ch.writeQ.len() > 0 {
			return &ch.writeQ
		}
		return nil
	}
	if ch.cfg.ReadOnly {
		if ch.readQ.len() > 0 {
			return &ch.readQ
		}
		return nil
	}
	if ch.draining {
		if ch.writeQ.len() == 0 || (ch.writeQ.len() <= ch.cfg.WriteLow && ch.readQ.len() > 0) {
			ch.draining = false
		}
	} else {
		if (ch.cfg.WriteHigh > 0 && ch.writeQ.len() >= ch.cfg.WriteHigh) ||
			(ch.readQ.len() == 0 && ch.writeQ.len() > 0) {
			ch.draining = true
		}
	}
	if ch.draining && ch.writeQ.len() > 0 {
		return &ch.writeQ
	}
	if ch.readQ.len() > 0 {
		return &ch.readQ
	}
	return nil
}

// schedule issues requests while data-bus slots within the lookahead horizon
// remain, then re-arms itself.
func (ch *channel) schedule() {
	ch.scheduled = false
	now := ch.eng.Now()
	for {
		q := ch.selectQueue()
		if q == nil {
			return // idle; next enqueue kicks
		}
		if ch.busFree >= now+Horizon {
			ch.kick(maxCycle(now+1, ch.busFree-Horizon))
			return
		}
		e := q.remove(ch.pick(q.live(), now))
		ch.issue(&e, q == &ch.writeQ, now)
	}
}

// issue performs the timing bookkeeping for one request popped from the
// write queue if isWrite is set, else from the read queue.
func (ch *channel) issue(e *queued, isWrite bool, now mem.Cycle) {
	b := &ch.banks[e.bank]
	burst := ch.burst
	if e.burst > 0 {
		burst = ch.cfg.cpuCycles(int(e.burst))
	}

	var dataStart mem.Cycle
	switch {
	case b.openRow == e.row:
		dataStart = maxCycle(now+ch.tCAS, b.nextData)
		ch.stats.RowHits++
	case b.openRow == -1:
		dataStart = maxCycle(now+ch.tRCD+ch.tCAS, b.nextData)
		b.actAt = dataStart - ch.tCAS - ch.tRCD
		ch.stats.RowMisses++
	default:
		pre := maxCycle(now, b.actAt+ch.tRAS)
		dataStart = maxCycle(pre+ch.tRP+ch.tRCD+ch.tCAS, b.nextData)
		b.actAt = dataStart - ch.tCAS - ch.tRCD
		ch.stats.RowMisses++
	}
	b.openRow = e.row

	busReady := ch.busFree
	if isWrite != ch.lastWrite {
		busReady += ch.turn
	}
	dataStart = maxCycle(dataStart, busReady)
	ch.lastWrite = isWrite
	b.nextData = dataStart + burst
	ch.busFree = dataStart + burst
	ch.stats.BusyCycles += burst

	if e.onIssue != nil {
		e.onIssue(dataStart - e.enqueued)
	}

	done := dataStart + burst + ch.io
	if isWrite {
		ch.stats.Writes++
	} else {
		ch.stats.Reads++
		ch.stats.ReadLatSum += done - e.enqueued
	}
	if e.done != nil {
		// AtCall hands the callback its execution cycle directly, so no
		// wrapper closure is allocated per completed access.
		ch.eng.AtCall(done, e.done)
	}
}

func maxCycle(a, b mem.Cycle) mem.Cycle {
	if a > b {
		return a
	}
	return b
}
