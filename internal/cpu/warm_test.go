package cpu

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"

	"dap/internal/ckpt"
	"dap/internal/mem"
	"dap/internal/sim"
	"dap/internal/workload"
)

// warmCall is one functional backend call as the backend received it.
type warmCall struct {
	addr mem.Addr
	core int
	wb   bool // WarmWriteback, else WarmRead
}

// logBackend records the functional calls the warmup makes. panicAt > 0
// makes that WarmRead call panic.
type logBackend struct {
	log     []warmCall
	panicAt int
	reads   int
}

func (b *logBackend) Read(mem.Addr, int, mem.Kind, func(mem.Cycle)) { panic("timed read in warmup") }
func (b *logBackend) Writeback(mem.Addr, int)                       { panic("timed writeback in warmup") }
func (b *logBackend) WarmRead(a mem.Addr, c int) {
	if b.reads++; b.reads == b.panicAt {
		panic("boom")
	}
	b.log = append(b.log, warmCall{addr: a, core: c})
}
func (b *logBackend) WarmWriteback(a mem.Addr, c int) {
	b.log = append(b.log, warmCall{addr: a, core: c, wb: true})
}

// panicStream panics on its panicAt-th Next call.
type panicStream struct {
	workload.Stream
	calls, panicAt int
}

func (s *panicStream) Next() workload.Access {
	if s.calls++; s.calls == s.panicAt {
		panic("boom")
	}
	return s.Stream.Next()
}

// warmCPU builds four parboil-lbm cores (45% stores) over caches small
// enough that dirty lines reach the backend, with the prefetcher on.
func warmCPU(be Backend) *CPU {
	cfg := Default()
	cfg.Cores = 4
	cfg.L1Bytes, cfg.L2Bytes, cfg.L3Bytes = 2*mem.KiB, 8*mem.KiB, 32*mem.KiB
	spec, _ := workload.ByName("parboil-lbm")
	c := New(cfg, sim.New(), be)
	var streams []workload.Stream
	for i := 0; i < cfg.Cores; i++ {
		streams = append(streams, workload.NewStream(spec, workload.CoreSpacing*mem.Addr(i+1), uint64(i+1)))
	}
	c.SetStreams(streams)
	return c
}

// warmSplit warms in the given steps and returns the CPU's checkpoint
// section and the backend's call log.
func warmSplit(t *testing.T, steps ...int) ([]byte, []warmCall) {
	t.Helper()
	be := &logBackend{}
	c := warmCPU(be)
	for _, n := range steps {
		c.Warm(n)
	}
	w := ckpt.NewWriter()
	if err := c.SaveState(w.Section("cpu")); err != nil {
		t.Fatal(err)
	}
	return w.Bytes(), be.log
}

// TestWarmSplitEqualsWhole: Warm(a) then Warm(n-a) leaves the state and
// makes the backend calls of Warm(n), so every Warm drains its pipeline
// before it returns (SaveCheckpoint, which reads the state Warmup leaves,
// relies on it). a is a whole number of chunks, which keeps the serial
// interleaving of the cores alike, but not of blocks, so the hand-offs
// fall elsewhere; n ends in a partial chunk. The replay names each call's
// core from its chunk, so every read must name the core whose line it
// reads.
func TestWarmSplitEqualsWhole(t *testing.T) {
	n := 9*warmRounds*warmChunk + 3*warmChunk + 17
	a := 2*warmRounds*warmChunk + warmChunk
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		whole, wholeLog := warmSplit(t, n)
		split, splitLog := warmSplit(t, a, n-a)
		runtime.GOMAXPROCS(prev)
		if !bytes.Equal(whole, split) {
			t.Fatalf("GOMAXPROCS=%d: Warm(%d)+Warm(%d) state differs from Warm(%d)", procs, a, n-a, n)
		}
		if !slices.Equal(wholeLog, splitLog) {
			t.Fatalf("GOMAXPROCS=%d: backend calls differ: %d split, %d whole", procs, len(splitLog), len(wholeLog))
		}
		var reads, wbs int
		for _, op := range wholeLog {
			if op.wb {
				wbs++
				continue
			}
			// A read is of the walked core's own line, so it names the
			// core whose region holds it.
			if owner := ownerOf(op.addr); owner != op.core {
				t.Fatalf("WarmRead of core %d's line %#x made as core %d", owner, op.addr, op.core)
			}
			reads++
		}
		if reads == 0 || wbs == 0 {
			t.Fatalf("warmup made %d reads and %d writebacks; the test needs both", reads, wbs)
		}
	}
}

// TestWarmPanicSurfaces: a panic in a helper stage (the backend's WarmRead,
// a stream's Next) re-raises on Warm's caller with the original value, and
// every helper goroutine has exited, so a worker pool that recovers the
// panic leaks nothing.
func TestWarmPanicSurfaces(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stage string
		setup func() *CPU
	}{
		{"backend", "memory-side replay", func() *CPU { return warmCPU(&logBackend{panicAt: 500}) }},
		{"stream", "stream draw", func() *CPU {
			c := warmCPU(&logBackend{})
			co := c.cores[2]
			co.stream = &panicStream{Stream: co.stream, panicAt: 3000}
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.setup()
			before := runtime.NumGoroutine()
			got := func() (v any) {
				defer func() { v = recover() }()
				c.Warm(20_000)
				return nil
			}()
			sp, ok := got.(*stagePanic)
			if !ok || sp.value != "boom" || sp.stage != tc.stage || len(sp.stack) == 0 {
				t.Fatalf("recovered %#v, want the %s stage's panic", got, tc.stage)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Warm, %d before", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}
