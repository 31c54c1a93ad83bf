package cpu

import (
	"fmt"
	"runtime/debug"

	"dap/internal/mem"
	"dap/internal/workload"
)

// Functional warmup runs as a three-stage pipeline, one goroutine a stage:
//
//   - stream draw: a helper draws every core's accesses from its stream,
//     round by round and core by core, exactly as many as the walk uses;
//   - SRAM walk: the calling goroutine walks them through the L1/L2/L3 and
//     trains the prefetchers, appending each functional backend call it
//     makes (WarmRead, WarmWriteback) to a batch;
//   - memory-side replay: a helper makes those calls on the Backend, batch
//     by batch, in order.
//
// During warmup the backend returns nothing to the hierarchy and a stream
// depends on nothing but itself, so each stage sees its input in the order
// a serial walk would make it, and the state Warm leaves is the serial
// walk's bit for bit. Stages hand over whole blocks of warmRounds rounds,
// so there is no synchronization per access.

// warmChunk is how many accesses a core runs before the next core takes
// its turn: small interleaved chunks leave shared structures (L3,
// memory-side cache) in a realistic mix rather than dominated by the last
// core warmed.
const warmChunk = 64

// warmRounds is how many rounds of warmChunk accesses per core one
// hand-off between stages carries. Long blocks keep the walk from
// waiting: a helper that the host runs late by up to about one and a half
// blocks of walk (a few milliseconds for eight cores) delays nothing, and
// a walk that waits parks its goroutine, which may then resume on another
// thread and CPU, away from the tag arrays that its cache held.
const warmRounds = 16

// warmBufs is how many blocks circulate through the stages: the draw may
// run up to warmBufs-1 blocks ahead of the replay.
const warmBufs = 3

// warmOp is one functional backend call of the SRAM walk: the line
// address, with warmWB set for a WarmWriteback. It holds no core: every
// call a core's chunk makes is that core's, so the block records where
// each chunk's calls end instead.
type warmOp uint64

// warmWB marks a WarmWriteback; simulated addresses stay far below bit 63.
const warmWB warmOp = 1 << 63

// warmBlock is one block in flight: the accesses the draw stage drew for
// warmRounds rounds, in walk order, the backend calls their walk made,
// and where in ops each chunk's calls end; the i-th chunk in walk order is
// core i mod len(cores)'s.
type warmBlock struct {
	accs []workload.Access
	ops  []warmOp
	ends []int
}

// stagePanic carries a panic out of a helper stage so that Warm re-raises
// it on the caller's goroutine, with the helper's stack attached.
type stagePanic struct {
	stage string
	value any
	stack []byte
}

func (p *stagePanic) String() string {
	return fmt.Sprintf("cpu: warmup %s panicked: %v\n\n%s stack:\n%s", p.stage, p.value, p.stage, p.stack)
}

// catchStage records a panic of the named stage in *dst.
func catchStage(stage string, dst **stagePanic) {
	if r := recover(); r != nil {
		*dst = &stagePanic{stage: stage, value: r, stack: debug.Stack()}
	}
}

// Warm replays n accesses per core through the cache hierarchy and backend
// functionally (no timing) to pre-populate all state, in rounds of
// warmChunk accesses per core. It returns once every stage has drained, so
// the caller sees exactly the serial walk's state; a panic in any stage is
// re-raised here after the others have stopped.
func (c *CPU) Warm(n int) {
	if n <= 0 {
		return
	}
	if c.blocks == nil {
		// A walk makes at most one read and two writebacks per access;
		// quick runs make at most 1.5 calls per access in any block, so a
		// batch of two per access rarely grows.
		size := warmRounds * warmChunk * len(c.cores)
		c.blocks = make([]warmBlock, warmBufs)
		for i := range c.blocks {
			c.blocks[i] = warmBlock{
				accs: make([]workload.Access, 0, size),
				ops:  make([]warmOp, 0, 2*size),
				ends: make([]int, 0, warmRounds*len(c.cores)),
			}
		}
	}
	// The channels carry block indices, draw → walk → replay → draw; a
	// block belongs to the stage that last received its index. Each
	// channel can hold every index at once, so a send never blocks.
	toWalk, toReplay, toDraw := make(chan int, warmBufs), make(chan int, warmBufs), make(chan int, warmBufs)
	for i := range c.blocks {
		toDraw <- i
	}
	var (
		drawFail, replayFail *stagePanic
		drawn, replayed      = make(chan struct{}), make(chan struct{})
	)
	go func() {
		defer close(drawn)
		defer close(toWalk) // tells the walk a failed draw has stopped
		defer catchStage("stream draw", &drawFail)
		c.draw(n, toDraw, toWalk)
	}()
	go func() {
		defer close(replayed)
		for b := range toReplay {
			if replayFail == nil { // after a panic, only hand the blocks back
				replayFail = c.replay(&c.blocks[b])
			}
			toDraw <- b
		}
	}()
	func() {
		defer func() {
			close(toReplay)
			<-replayed
			close(toDraw) // the replay was its last sender
			<-drawn
		}()
		c.walk(n, toWalk, toReplay)
	}()
	for _, f := range []*stagePanic{drawFail, replayFail} {
		if f != nil {
			panic(f)
		}
	}
}

// draw is the stream-draw stage: it fills a free block with the accesses
// of warmRounds rounds, in walk order, and hands it on. It stops early
// when Warm closes free.
func (c *CPU) draw(n int, free <-chan int, full chan<- int) {
	for done := 0; done < n; done += warmRounds * warmChunk {
		b, ok := <-free
		if !ok {
			return
		}
		accs := c.blocks[b].accs[:0]
		for r := done; r < n && r < done+warmRounds*warmChunk; r += warmChunk {
			m := min(warmChunk, n-r)
			for _, co := range c.cores {
				for i := 0; i < m; i++ {
					accs = append(accs, co.stream.Next())
				}
			}
		}
		c.blocks[b].accs = accs
		full <- b
	}
}

// walk is the SRAM-walk stage. Each core executes its pending access and
// takes the next one from the drawn block, as loadNext would from its
// stream; the backend calls go to the block's batch, and each chunk's end
// to its ends. It stops early only when the draw stage has failed.
func (c *CPU) walk(n int, drawn <-chan int, walked chan<- int) {
	for done := 0; done < n; done += warmRounds * warmChunk {
		b, ok := <-drawn
		if !ok {
			return
		}
		blk := &c.blocks[b]
		c.batch, blk.ends = blk.ops[:0], blk.ends[:0]
		accs := blk.accs
		for r := done; r < n && r < done+warmRounds*warmChunk; r += warmChunk {
			m := min(warmChunk, n-r)
			for _, co := range c.cores {
				for _, a := range accs[:m] {
					co.warmExecute(co.pend)
					co.pendPos += 1 + uint64(a.Gap)
					co.pend = a
				}
				accs = accs[m:]
				blk.ends = append(blk.ends, len(c.batch))
			}
		}
		blk.ops = c.batch
		walked <- b
	}
}

// replay is the memory-side replay stage's work on one block: each
// chunk's calls in order, made as the chunk's core. It returns the panic a
// backend call raised, if any.
func (c *CPU) replay(blk *warmBlock) (fail *stagePanic) {
	defer catchStage("memory-side replay", &fail)
	be, start := c.backend, 0
	for i, end := range blk.ends {
		core := i % len(c.cores)
		for _, op := range blk.ops[start:end] {
			if op&warmWB != 0 {
				be.WarmWriteback(mem.Addr(op&^warmWB), core)
			} else {
				be.WarmRead(mem.Addr(op), core)
			}
		}
		start = end
	}
	return nil
}
