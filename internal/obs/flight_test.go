package obs

import (
	"encoding/json"
	"errors"
	"testing"

	"dap/internal/mem"
)

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
