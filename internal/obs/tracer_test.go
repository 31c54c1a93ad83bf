package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dap/internal/mem"
	"dap/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildTracer records two fully-phased spans with a hand-driven clock:
// a cache-served read with a queue wait and an SFRM-steered main-memory
// read without one.
func buildTracer() *Tracer {
	var clock mem.Cycle
	tr := NewTracer(func() mem.Cycle { return clock }, 1, 8)

	clock = 100
	sp := tr.Read(0, 0x1000, mem.ReadKind)
	clock = 104
	sp.Meta()
	clock = 120
	sp.Decide(stats.BDTechNone)
	sp.Serve(stats.BDSrcCache)
	sp.QueueWait(8)
	sp.Finish(180)

	clock = 200
	sp2 := tr.Read(1, 0x2040, mem.ReadKind)
	clock = 204
	sp2.Meta()
	clock = 220
	sp2.Decide(stats.BDTechSFRM)
	sp2.Serve(stats.BDSrcMain)
	sp2.Finish(300)
	sp2.Finish(350) // second Finish must be ignored
	return tr
}

func TestTracerSpanLifecycle(t *testing.T) {
	tr := buildTracer()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	want := SpanRecord{
		Core: 0, Addr: 0x1000, Kind: mem.ReadKind,
		Start: 100, Meta: 104, Decide: 120, Serve: 120, End: 180,
		Wait: 8, Src: stats.BDSrcCache, Tech: stats.BDTechNone,
	}
	if spans[0] != want {
		t.Errorf("span 0 = %+v, want %+v", spans[0], want)
	}
	if spans[1].End != 300 {
		t.Errorf("span 1 End = %d, want 300 (second Finish not ignored)", spans[1].End)
	}

	bd := tr.Breakdown()
	if bd.Spans() != 2 {
		t.Fatalf("breakdown spans = %d, want 2", bd.Spans())
	}
	// Cache-served span: queue 8, meta 16, service 60-8, total 80.
	c := bd.BySource(stats.BDSrcCache)
	if c.Queue.Sum != 8 || c.Meta.Sum != 16 || c.Service.Sum != 52 || c.Total.Sum != 80 {
		t.Errorf("cache phases q=%d m=%d s=%d t=%d, want 8/16/52/80",
			c.Queue.Sum, c.Meta.Sum, c.Service.Sum, c.Total.Sum)
	}
	// Main-memory SFRM span: queue 0, meta 16, service 80, total 100.
	m := bd.Cells[stats.BDSrcMain][stats.BDTechSFRM]
	if m.Queue.Sum != 0 || m.Meta.Sum != 16 || m.Service.Sum != 80 || m.Total.Sum != 100 {
		t.Errorf("main/sfrm phases q=%d m=%d s=%d t=%d, want 0/16/80/100",
			m.Queue.Sum, m.Meta.Sum, m.Service.Sum, m.Total.Sum)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	tr := buildTracer()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace is not valid JSON:\n%s", buf.String())
	}
	golden := filepath.Join("testdata", "trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (run with -update to create): %v", golden, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace mismatch\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

func TestTracerSamplingStride(t *testing.T) {
	var clock mem.Cycle
	tr := NewTracer(func() mem.Cycle { return clock }, 3, 0)
	traced := 0
	for i := 0; i < 9; i++ {
		if sp := tr.Read(0, mem.Addr(i), mem.ReadKind); sp != nil {
			traced++
			sp.Finish(clock)
		}
	}
	if traced != 3 {
		t.Errorf("traced %d of 9 reads at stride 3, want 3", traced)
	}
}

// TestTracerCapacityDrops checks a sampled read past the span cap: it is
// not retained and is counted in Dropped, but the breakdown still counts
// it, so the latency table covers the whole run.
func TestTracerCapacityDrops(t *testing.T) {
	var clock mem.Cycle
	tr := NewTracer(func() mem.Cycle { return clock }, 1, 1)
	tr.Read(0, 0x40, mem.ReadKind).Finish(10)
	tr.Read(0, 0x80, mem.ReadKind).Finish(20)
	if n := len(tr.Spans()); n != 1 || tr.Spans()[0].Addr != 0x40 {
		t.Errorf("retained %d spans (%+v), want only the first", n, tr.Spans())
	}
	if tr.Dropped() != 1 {
		t.Errorf("Dropped() = %d, want 1", tr.Dropped())
	}
	if n := tr.Breakdown().Spans(); n != 2 {
		t.Errorf("breakdown counted %d spans, want 2", n)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Read(0, 0, mem.ReadKind)
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	// Every span method must be a no-op on nil.
	sp.Meta()
	sp.Decide(stats.BDTechIFRM)
	sp.Serve(stats.BDSrcMain)
	sp.QueueWait(5)
	sp.Finish(10)
	if OnIssue(sp) != nil {
		t.Error("OnIssue(nil span) != nil: request fast path would allocate")
	}
	called := false
	done := func(mem.Cycle) { called = true }
	sp.Wrap(done)(1)
	if !called {
		t.Error("Wrap on nil span did not pass done through")
	}
	if tr.Breakdown() != nil || tr.Spans() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer accessors not zero-valued")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) || !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Errorf("nil tracer trace invalid: %s", buf.String())
	}
}
