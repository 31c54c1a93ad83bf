package obs

import (
	"errors"
	"fmt"
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

	var nilFR *FlightRecorder
	nilFR.Add(1, "x")
	nilFR.Addf(1, "y")
	if nilFR.Len() != 0 || nilFR.Dropped() != 0 || nilFR.Entries() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestFlightErrorUnwrap(t *testing.T) {
	base := errors.New("engine stalled")
	fr := NewFlightRecorder(4)
	fr.Add(600, "run-aborted")
	fe := &FlightError{Flight: fr, Err: base}
	if !errors.Is(fe, base) {
		t.Fatal("FlightError does not unwrap to its cause")
	}
	if fe.Error() != base.Error() {
		t.Fatalf("Error() = %q, want the cause's %q", fe.Error(), base.Error())
	}
	var got *FlightError
	wrapped := fmt.Errorf("runner: job 0: %w", error(fe))
	if !errors.As(wrapped, &got) || got.Flight != fr || got.Flight.Entries()[0].Note != "run-aborted" {
		t.Fatal("errors.As failed to recover the FlightError and its recorder")
	}
}
