package workload

import (
	"bytes"
	"testing"

	"dap/internal/mem"
)

func TestTraceRoundTrip(t *testing.T) {
	spec, _ := ByName("mcf")
	src := NewStream(spec, CoreSpacing, 7)
	ref := NewStream(spec, CoreSpacing, 7)

	var buf bytes.Buffer
	const n = 5000
	if err := WriteTrace(&buf, src, n); err != nil {
		t.Fatal(err)
	}
	ts, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != n {
		t.Fatalf("len = %d, want %d", ts.Len(), n)
	}
	for i := 0; i < n; i++ {
		want := ref.Next()
		got := ts.Next()
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	// looping: record n wraps to record 0
	first := ref
	_ = first
	ts2, _ := ReadTrace(func() *bytes.Buffer {
		var b bytes.Buffer
		WriteTrace(&b, NewStream(spec, CoreSpacing, 7), 10)
		return &b
	}())
	var seq []Access
	for i := 0; i < 20; i++ {
		seq = append(seq, ts2.Next())
	}
	for i := 0; i < 10; i++ {
		if seq[i] != seq[i+10] {
			t.Fatalf("trace must loop: %d", i)
		}
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must be rejected")
	}
	// valid magic, truncated body
	var buf bytes.Buffer
	spec, _ := ByName("hpcg")
	WriteTrace(&buf, NewStream(spec, 0, 1), 100)
	b := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadTrace(bytes.NewReader(b)); err == nil {
		t.Fatal("truncated trace must be rejected")
	}
}

func TestTraceRebase(t *testing.T) {
	var buf bytes.Buffer
	spec, _ := ByName("sjeng")
	WriteTrace(&buf, NewStream(spec, 0, 1), 100)
	ts, _ := ReadTrace(&buf)
	shifted := ts.Rebase(CoreSpacing)
	for i := 0; i < 100; i++ {
		a, b := ts.Next(), shifted.Next()
		if b.Addr != a.Addr+CoreSpacing {
			t.Fatalf("rebase broken at %d", i)
		}
		if a.Store != b.Store || a.Gap != b.Gap {
			t.Fatal("rebase must preserve non-address fields")
		}
	}
}

func TestTraceDrivesSimulation(t *testing.T) {
	// a trace is a Stream: it must plug in wherever a generated stream does
	var buf bytes.Buffer
	spec, _ := ByName("gcc.expr")
	WriteTrace(&buf, NewStream(spec, 0, 1), 1000)
	ts, _ := ReadTrace(&buf)
	var s Stream = ts.Rebase(CoreBase(0))
	for i := 0; i < 2500; i++ { // loops twice
		a := s.Next()
		if a.Addr < CoreBase(0) || a.Addr >= CoreBase(0)+mem.Addr(spec.Footprint())+4096 {
			t.Fatalf("trace access out of region: %#x", a.Addr)
		}
	}
}
