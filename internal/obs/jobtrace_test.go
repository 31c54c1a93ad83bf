package obs

import (
	"bytes"
	"context"
	"dap/internal/mem"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJobTracerChromeJSON(t *testing.T) {
	jt := NewJobTracer(16)
	jt.Track(3, "s1-j3 mcf/dap")
	t0 := time.Now()
	jt.Instant(3, "submit", "corr", "s1-j3")
	jt.Span(3, "queue-wait", t0, t0.Add(5*time.Millisecond), "corr", "s1-j3")
	jt.Instant(3, "retry", "corr", "s1-j3", "err", `boom "quoted"`)

	var buf bytes.Buffer
	if err := jt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(parsed.TraceEvents) != 4 { // metadata + 3 events
		t.Fatalf("got %d events, want 4\n%s", len(parsed.TraceEvents), buf.Bytes())
	}
	if !jt.HasInstant("retry") {
		t.Fatal("HasInstant(retry) = false")
	}
	if jt.HasInstant("dead") {
		t.Fatal("HasInstant(dead) = true, want false")
	}

	// nil tracer: all no-ops, empty but valid trace
	var nilT *JobTracer
	nilT.Track(1, "x")
	nilT.Instant(1, "y")
	nilT.Span(1, "z", t0, t0)
	if nilT.Len() != 0 || nilT.Dropped() != 0 || nilT.HasInstant("y") {
		t.Fatal("nil tracer not inert")
	}
	buf.Reset()
	if err := nilT.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil trace invalid: %s", buf.Bytes())
	}
}

func TestJobTracerBoundedAndConcurrent(t *testing.T) {
	jt := NewJobTracer(100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				jt.Instant(uint64(w), "tick")
			}
		}(w)
	}
	wg.Wait()
	if jt.Len() != 100 {
		t.Fatalf("Len = %d, want capped at 100", jt.Len())
	}
	if jt.Dropped() != 300 {
		t.Fatalf("Dropped = %d, want 300", jt.Dropped())
	}
}

// TestJobTracerKeepsNewest checks the tracer is a ring: after an overflow
// the newest event is retained and the oldest evicted, so a long-lived
// service keeps showing its latest jobs.
func TestJobTracerKeepsNewest(t *testing.T) {
	jt := NewJobTracer(2)
	for _, name := range []string{"first", "second", "newest"} {
		jt.Instant(1, name)
	}
	if !jt.HasInstant("newest") || jt.HasInstant("first") {
		t.Fatalf("newest retained %v, first retained %v; want true, false",
			jt.HasInstant("newest"), jt.HasInstant("first"))
	}
	if jt.Len() != 2 || jt.Dropped() != 1 {
		t.Fatalf("Len %d Dropped %d, want 2 and 1", jt.Len(), jt.Dropped())
	}
}

func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 1; i <= 6; i++ {
		fr.Addf(mem.Cycle(i*100), "note %d", i)
	}
	if fr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", fr.Len())
	}
	if fr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", fr.Dropped())
	}
	got := fr.Entries()
	for i, want := range []uint64{300, 400, 500, 600} {
		if got[i].Cycle != want {
			t.Fatalf("entry %d cycle = %d, want %d (all %v)", i, got[i].Cycle, want, got)
		}
	}

	d := fr.Dump("watchdog-stall", "cycle=600 pending=3")
	if d.Reason != "watchdog-stall" || len(d.Entries) != 4 || d.Dropped != 2 {
		t.Fatalf("dump = %+v", d)
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("dump not JSON-serializable: %v", err)
	}

	var nilFR *FlightRecorder
	nilFR.Add(1, "x")
	nilFR.Addf(1, "y")
	if nilFR.Len() != 0 || nilFR.Entries() != nil || nilFR.Dump("r", "s") != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestFlightErrorUnwrap(t *testing.T) {
	base := errors.New("engine stalled")
	fe := &FlightError{Dump: &FlightDump{Reason: "watchdog-stall"}, Err: base}
	if !errors.Is(fe, base) {
		t.Fatal("FlightError does not unwrap to its cause")
	}
	var got *FlightError
	if !errors.As(error(fe), &got) || got.Dump.Reason != "watchdog-stall" {
		t.Fatal("errors.As failed to recover the FlightError")
	}
}

func TestLoggingContextHelpers(t *testing.T) {
	ctx := WithCorr(context.Background(), "s1-j2")
	if Corr(ctx) != "s1-j2" {
		t.Fatalf("Corr = %q", Corr(ctx))
	}
	if Corr(context.Background()) != "" || Corr(nil) != "" {
		t.Fatal("absent corr should be empty")
	}

	var buf bytes.Buffer
	l := NewLogger(&buf, "debug", "json")
	ctx = WithLogger(ctx, l)
	LoggerFrom(ctx).Info("hello", "corr", Corr(ctx))
	if !strings.Contains(buf.String(), `"corr":"s1-j2"`) {
		t.Fatalf("log record missing corr: %s", buf.String())
	}
	// absent logger degrades to silent, never nil
	if LoggerFrom(context.Background()) == nil || LoggerFrom(nil) == nil || OrNop(nil) == nil {
		t.Fatal("LoggerFrom/OrNop returned nil")
	}
	LoggerFrom(context.Background()).Info("discarded")

	// level filtering: warn logger drops info
	buf.Reset()
	wl := NewLogger(&buf, "warn", "text")
	wl.Info("nope")
	wl.Warn("yep")
	if strings.Contains(buf.String(), "nope") || !strings.Contains(buf.String(), "yep") {
		t.Fatalf("level filtering wrong: %s", buf.String())
	}
}
