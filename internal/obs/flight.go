package obs

import (
	"fmt"

	"dap/internal/mem"
)

// FlightRecorder keeps a bounded ring of recent engine-state summaries for
// one running simulation — the "black box" that turns a watchdog stall, an
// audit violation or a faultinject abort into a postmortem. The simulation
// samples into it periodically (see sim.Engine.SetFlightSampler) and at
// lifecycle milestones; the finished run hands it to Result.Flight, and
// dapsim prints its entries after an aborted run's diagnostic.
//
// Like every observer in this package the recorder is strictly read-only
// with respect to simulated state: it stores strings the simulation already
// produced, is single-goroutine (the engine's), and a nil *FlightRecorder
// is a valid disabled recorder whose methods are no-ops.
type FlightRecorder struct {
	ring Ring[FlightEntry]
}

// FlightEntry is one recorded state summary.
type FlightEntry struct {
	Cycle uint64
	Note  string
}

// NewFlightRecorder builds a recorder retaining the last capacity entries
// (≤ 0 selects 256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &FlightRecorder{ring: NewRing[FlightEntry](capacity)}
}

// Add records one entry, evicting the oldest when the ring is full.
func (fr *FlightRecorder) Add(cycle mem.Cycle, note string) {
	if fr == nil {
		return
	}
	fr.ring.Push(FlightEntry{Cycle: uint64(cycle), Note: note})
}

// Addf is Add with printf formatting.
func (fr *FlightRecorder) Addf(cycle mem.Cycle, format string, args ...any) {
	if fr == nil {
		return
	}
	fr.Add(cycle, fmt.Sprintf(format, args...))
}

// Len returns the number of retained entries.
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	return fr.ring.Len()
}

// Dropped returns how many old entries were evicted by the ring.
func (fr *FlightRecorder) Dropped() uint64 {
	if fr == nil {
		return 0
	}
	return fr.ring.Evicted()
}

// Entries returns the retained entries oldest-first (a copy).
func (fr *FlightRecorder) Entries() []FlightEntry {
	if fr.Len() == 0 {
		return nil
	}
	return fr.ring.All()
}

// FlightError attaches a run's flight recorder to the error that aborted
// it, so a layer above the harness can carry the recording without
// importing harness types: an aborted replica of
// harness.ReplicateParallel returns one, and `dapsim -replicate` prints
// its entries. It unwraps to the underlying error.
type FlightError struct {
	Flight *FlightRecorder
	Err    error
}

func (e *FlightError) Error() string { return e.Err.Error() }
func (e *FlightError) Unwrap() error { return e.Err }
