// Package sim provides the discrete-event simulation engine that drives the
// whole memory-hierarchy model. Components schedule callbacks at absolute or
// relative cycle times; the engine executes them in time order with a
// deterministic tie-break so that simulations are exactly reproducible.
package sim

import (
	"fmt"
	"math/bits"

	"dap/internal/mem"
)

// Handler is a typed event callback: ctx is usually the receiving component
// (a pointer, so boxing it in the interface never allocates), v is a packed
// value argument, and now is the cycle the event runs at. Scheduling a
// top-level Handler through AtArg/AfterArg costs no closure allocation,
// which is why the simulator's hot completion paths use it instead of At.
type Handler func(ctx any, v uint64, now mem.Cycle)

// event is a scheduled callback: a Handler with its ctx/v payload. At and
// AtCall carry their closure as ctx through callFunc and callCycleFunc.
type event struct {
	when mem.Cycle
	seq  uint64 // insertion order; breaks ties deterministically
	fn   Handler
	ctx  any
	v    uint64
}

// callFunc and callCycleFunc run the closures At and AtCall box as ctx. A
// func value is pointer-shaped, so boxing it allocates nothing.
func callFunc(ctx any, _ uint64, _ mem.Cycle)        { ctx.(func())() }
func callCycleFunc(ctx any, _ uint64, now mem.Cycle) { ctx.(func(mem.Cycle))(now) }

// The timing wheel exploits the fact that nearly every event in this
// simulator is scheduled a bounded, small number of cycles ahead: DRAM
// timing parameters and the channel reservation horizon are a few hundred
// cycles, tag/DBC latencies single digits, and core wake-ups rarely more
// than a few thousand. Those events go into a ring of wheelSize one-cycle
// buckets, giving O(1) schedule and pop; the rare far-future events
// (BATMAN's 50,000-cycle epochs, sparse metric samples) spill into a
// conventional binary heap that is consulted only at pop time.
const (
	wheelBits  = 12
	wheelSize  = 1 << wheelBits // cycles of near-future coverage
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy-bitmap words
)

// eventNode is one arena cell: an event plus the index of the next node in
// its wheel slot's list (or the free list), -1 terminating either. All wheel
// events live in a single growable arena and slots hold index-linked FIFO
// lists into it, so a fresh engine pays one amortized arena allocation for
// its entire lifetime instead of one slice growth per warming bucket.
type eventNode struct {
	ev   event
	next int32
}

// bucketList is one wheel slot: head/tail indices into the arena, -1 when
// empty. Because every resident event satisfies now <= when < now+wheelSize,
// a slot maps to exactly one absolute cycle at any moment, and tail-append
// preserves seq order — so a slot's list is always sorted by (when, seq)
// with no per-push work.
type bucketList struct {
	head, tail int32
}

// eventHeap is a hand-rolled binary min-heap ordered by (when, seq). It
// holds only the overflow events scheduled at least wheelSize cycles
// ahead; everything else bypasses it. Keeping it hand-rolled (rather than
// container/heap) keeps events out of interface boxes: pushing through
// heap.Interface converts every event to `any`, costing one heap
// allocation per scheduled event.
type eventHeap []event

// before reports strict (when, seq) ordering between two heap slots.
func (q eventHeap) before(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}

// push appends an event and sifts it up to its heap position.
func (q *eventHeap) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

// pop removes and returns the minimum event, sifting the displaced tail
// element down. The vacated tail slot is zeroed so the queue does not
// retain the popped closure.
func (q *eventHeap) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.before(r, c) {
			c = r
		}
		if !h.before(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// StallError reports a forward-progress failure: the watchdog observed no
// progress for too many executed events, or the queue drained while the
// simulated system still had work outstanding (a deadlock).
type StallError struct {
	Cycle    mem.Cycle // simulated time of detection
	Events   uint64    // events executed without observable progress
	Pending  int       // events still queued at detection time
	Snapshot string    // component-state dump captured at detection time
}

func (e *StallError) Error() string {
	kind := "stalled"
	if e.Pending == 0 {
		kind = "deadlocked"
	}
	msg := fmt.Sprintf("sim: %s at cycle %d (%d events without progress, %d pending)",
		kind, e.Cycle, e.Events, e.Pending)
	if e.Snapshot != "" {
		msg += "\n" + e.Snapshot
	}
	return msg
}

// watchdog is the engine's stall detector. Every batch executed events it
// samples the progress fingerprint; limit consecutive stale samples with no
// simulated-time advance between them trip a StallError.
type watchdog struct {
	batch, limit int
	count, stale int
	lastProg     uint64
	progress     func() uint64
	snapshot     func() string
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
//
// Events live in one of two structures: a timing wheel of one-cycle
// buckets covering [now, now+wheelSize), and an overflow heap for events
// scheduled further ahead. Both are ordered by (when, seq); pop compares
// the wheel's earliest bucket head with the heap top, so the execution
// order — and therefore every simulation result — is bit-identical to a
// single (when, seq) priority queue.
type Engine struct {
	now mem.Cycle
	seq uint64

	slots    []bucketList       // wheel ring, allocated on first use
	arena    []eventNode        // node storage for every wheel-resident event
	free     int32              // LIFO free-list head into arena, -1 when empty
	occ      [wheelWords]uint64 // one bit per non-empty bucket
	nwheel   int                // events resident in the wheel
	overflow eventHeap          // events >= wheelSize cycles ahead

	wd  *watchdog
	fs  *flightSampler
	err error
}

// flightSampler periodically invokes a state-capture callback — the flight
// recorder's feed. Like the watchdog it piggybacks on Step with a single
// counter increment per event when armed, and zero branches beyond the nil
// check when off.
type flightSampler struct {
	every, count int
	fn           func(mem.Cycle)
}

// New returns an empty engine at cycle zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() mem.Cycle { return e.now }

// Clock returns the engine's timestamp source as a plain function, the
// form consumed by observability components (internal/obs) that must not
// depend on the engine itself.
func (e *Engine) Clock() func() mem.Cycle { return e.Now }

// schedule places a clamped, sequenced event into the wheel or, when it
// lies beyond the wheel's coverage, into the overflow heap. The overflow
// never migrates into the wheel: pop compares both structures directly, so
// a far-future event is simply served from the heap when its time comes.
func (e *Engine) schedule(ev event) {
	if ev.when-e.now < wheelSize {
		if e.slots == nil {
			e.slots = make([]bucketList, wheelSize)
			for i := range e.slots {
				e.slots[i] = bucketList{head: -1, tail: -1}
			}
			e.free = -1
			e.arena = make([]eventNode, 0, 1024)
		}
		// Take a node from the free list, or append to the arena — append
		// before linking, so a reallocating append can never leave a slot
		// pointing into the stale backing array.
		var n int32
		if e.free >= 0 {
			n = e.free
			e.free = e.arena[n].next
			e.arena[n] = eventNode{ev: ev, next: -1}
		} else {
			e.arena = append(e.arena, eventNode{ev: ev, next: -1})
			n = int32(len(e.arena) - 1)
		}
		slot := int(ev.when) & wheelMask
		b := &e.slots[slot]
		if b.tail < 0 {
			b.head = n
		} else {
			e.arena[b.tail].next = n
		}
		b.tail = n
		e.occ[slot>>6] |= 1 << uint(slot&63)
		e.nwheel++
		return
	}
	e.overflow.push(ev)
}

// At schedules fn to run at absolute cycle when. Scheduling in the past is
// clamped to the current cycle (the event runs before time advances).
func (e *Engine) At(when mem.Cycle, fn func()) {
	e.AtArg(when, callFunc, fn, 0)
}

// AtCall schedules fn to run at absolute cycle when, passing it the cycle
// it executes at (when, after past-clamping). It exists for completion
// paths that already hold a func(mem.Cycle): scheduling it directly avoids
// allocating a wrapper closure per event, which matters on the DRAM
// data-return path where every access schedules one completion.
func (e *Engine) AtCall(when mem.Cycle, fn func(mem.Cycle)) {
	e.AtArg(when, callCycleFunc, fn, 0)
}

// AtArg schedules the typed handler fn(ctx, v, when) at absolute cycle
// when (past-clamped like At). Passing a top-level function and a pointer
// ctx makes scheduling completely allocation-free, which is what the
// simulator's per-access paths (channel scheduler kicks, core wake-ups,
// load completions) use instead of capturing closures.
func (e *Engine) AtArg(when mem.Cycle, fn Handler, ctx any, v uint64) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	e.schedule(event{when: when, seq: e.seq, fn: fn, ctx: ctx, v: v})
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay mem.Cycle, fn func()) {
	e.At(e.now+delay, fn)
}

// AfterArg schedules the typed handler fn(ctx, v, t) delay cycles from now
// (the allocation-free counterpart of After; see AtArg).
func (e *Engine) AfterArg(delay mem.Cycle, fn Handler, ctx any, v uint64) {
	e.AtArg(e.now+delay, fn, ctx, v)
}

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return e.nwheel + len(e.overflow) }

// wheelScan returns the slot of the earliest non-empty wheel bucket, which
// — because every resident event's cycle lies in [now, now+wheelSize) —
// is the first occupied slot in circular order from now's slot. Must only
// be called with nwheel > 0.
func (e *Engine) wheelScan() int {
	s := int(e.now) & wheelMask
	w := s >> 6
	word := e.occ[w] &^ (1<<uint(s&63) - 1) // ignore slots before now
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w = (w + 1) & (wheelWords - 1)
		word = e.occ[w]
	}
}

// nextWhen reports the cycle of the earliest pending event.
func (e *Engine) nextWhen() (mem.Cycle, bool) {
	switch {
	case e.nwheel == 0 && len(e.overflow) == 0:
		return 0, false
	case e.nwheel == 0:
		return e.overflow[0].when, true
	}
	slot := e.wheelScan()
	when := e.arena[e.slots[slot].head].ev.when
	if len(e.overflow) > 0 && e.overflow[0].when < when {
		return e.overflow[0].when, true
	}
	return when, true
}

// pop removes and returns the earliest event by (when, seq), comparing the
// wheel's first occupied bucket against the overflow heap top.
func (e *Engine) pop() (event, bool) {
	if e.nwheel == 0 {
		if len(e.overflow) == 0 {
			return event{}, false
		}
		return e.overflow.pop(), true
	}
	slot := e.wheelScan()
	b := &e.slots[slot]
	hn := b.head
	head := &e.arena[hn].ev
	if len(e.overflow) > 0 {
		if top := &e.overflow[0]; top.when < head.when ||
			(top.when == head.when && top.seq < head.seq) {
			return e.overflow.pop(), true
		}
	}
	ev := *head
	*head = event{} // release closure/ctx references
	b.head = e.arena[hn].next
	if b.head < 0 {
		b.tail = -1
		e.occ[slot>>6] &^= 1 << uint(slot&63)
	}
	e.arena[hn].next = e.free
	e.free = hn
	e.nwheel--
	return ev, true
}

// watchdogChecks is how many stale samples in a row trip the watchdog; the
// sample interval is staleEvents / watchdogChecks executed events.
const watchdogChecks = 8

// SetWatchdog arms the forward-progress watchdog: if the progress
// fingerprint returned by progress does not change across roughly
// staleEvents consecutively executed events, the engine stops and Err
// returns a *StallError. progress defaults to simulated time when nil;
// snapshot, when non-nil, supplies a component-state dump captured at the
// moment the stall is detected. staleEvents <= 0 disarms the watchdog.
//
// The per-event cost when armed is one counter increment; the fingerprint
// is only sampled every staleEvents/8 events.
func (e *Engine) SetWatchdog(staleEvents int, progress func() uint64, snapshot func() string) {
	if staleEvents <= 0 {
		e.wd = nil
		return
	}
	batch := staleEvents / watchdogChecks
	if batch < 1 {
		batch = 1
	}
	if progress == nil {
		progress = func() uint64 { return uint64(e.now) }
	}
	e.wd = &watchdog{
		batch: batch, limit: watchdogChecks,
		progress: progress, snapshot: snapshot, lastProg: progress(),
	}
}

// SetFlightSampler arms periodic state sampling: fn is invoked with the
// current cycle every `every` executed events — the feed for a flight
// recorder capturing "what was the system doing lately". fn must be a
// strict read-only observer (it runs between events on the engine
// goroutine); every <= 0 or a nil fn disarms. The per-event cost when
// armed is one counter increment, matching the watchdog.
func (e *Engine) SetFlightSampler(every int, fn func(mem.Cycle)) {
	if every <= 0 || fn == nil {
		e.fs = nil
		return
	}
	e.fs = &flightSampler{every: every, fn: fn}
}

// Fail stops the engine with err: no further events execute, and Err
// reports the failure. The first failure wins; later ones are dropped.
func (e *Engine) Fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// Err returns the failure that stopped the engine (a *StallError from the
// watchdog, or whatever was passed to Fail), or nil while healthy.
func (e *Engine) Err() error { return e.err }

// Step executes the next event. It reports false when no events remain or
// the engine has failed.
func (e *Engine) Step() bool {
	if e.err != nil {
		return false
	}
	ev, ok := e.pop()
	if !ok {
		return false
	}
	e.now = ev.when
	ev.fn(ev.ctx, ev.v, ev.when)
	if f := e.fs; f != nil {
		f.count++
		if f.count >= f.every {
			f.count = 0
			f.fn(e.now)
		}
	}
	if w := e.wd; w != nil {
		w.count++
		if w.count >= w.batch {
			w.count = 0
			if p := w.progress(); p != w.lastProg {
				w.lastProg = p
				w.stale = 0
			} else if w.stale++; w.stale >= w.limit {
				snap := ""
				if w.snapshot != nil {
					snap = w.snapshot()
				}
				e.Fail(&StallError{
					Cycle:    e.now,
					Events:   uint64(w.batch) * uint64(w.stale),
					Pending:  e.Pending(),
					Snapshot: snap,
				})
			}
		}
	}
	return true
}

// RunUntil executes events until the queue is empty, the engine fails, or
// the next event lies beyond the limit cycle. Time stops at the last
// executed event (or at limit if the queue drains earlier than limit with
// no event at/after it); a failed engine does not advance time.
func (e *Engine) RunUntil(limit mem.Cycle) {
	for e.err == nil {
		when, ok := e.nextWhen()
		if !ok || when > limit {
			break
		}
		e.Step()
	}
	if e.err == nil && e.now < limit {
		e.now = limit
	}
}

// RunWhile executes events while cond() holds and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// Drain executes all remaining events.
func (e *Engine) Drain() {
	for e.Step() {
	}
}
