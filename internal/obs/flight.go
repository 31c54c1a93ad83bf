package obs

import (
	"fmt"

	"dap/internal/mem"
)

// FlightRecorder keeps a bounded ring of recent engine-state summaries for
// one running simulation — the "black box" that turns a watchdog stall, an
// exhausted job or a faultinject abort into a postmortem artifact. The
// simulation samples into it periodically (see sim.Engine.SetFlightSampler)
// and at lifecycle milestones; on a failure the harness freezes the ring
// into a FlightDump.
//
// Like every observer in this package the recorder is strictly read-only
// with respect to simulated state: it stores strings the simulation already
// produced, is single-goroutine (the engine's), and a nil *FlightRecorder
// is a valid disabled recorder whose methods are no-ops.
type FlightRecorder struct {
	entries []FlightEntry
	max     int
	head    int // next write position once the ring is full
	full    bool
	dropped uint64
}

// FlightEntry is one recorded state summary.
type FlightEntry struct {
	Cycle uint64 `json:"cycle"`
	Note  string `json:"note"`
}

// NewFlightRecorder builds a recorder retaining the last capacity entries
// (≤ 0 selects 256).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &FlightRecorder{max: capacity}
}

// Add records one entry, evicting the oldest when the ring is full.
func (fr *FlightRecorder) Add(cycle mem.Cycle, note string) {
	if fr == nil {
		return
	}
	e := FlightEntry{Cycle: uint64(cycle), Note: note}
	if len(fr.entries) < fr.max {
		fr.entries = append(fr.entries, e)
		return
	}
	fr.entries[fr.head] = e
	fr.head = (fr.head + 1) % fr.max
	fr.full = true
	fr.dropped++
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
	return len(fr.entries)
}

// Dropped returns how many old entries were evicted by the ring.
func (fr *FlightRecorder) Dropped() uint64 {
	if fr == nil {
		return 0
	}
	return fr.dropped
}

// Entries returns the retained entries oldest-first (a copy).
func (fr *FlightRecorder) Entries() []FlightEntry {
	if fr == nil || len(fr.entries) == 0 {
		return nil
	}
	out := make([]FlightEntry, 0, len(fr.entries))
	if fr.full {
		out = append(out, fr.entries[fr.head:]...)
		out = append(out, fr.entries[:fr.head]...)
	} else {
		out = append(out, fr.entries...)
	}
	return out
}

// FlightDump is a frozen flight recording plus the failure context — what
// the sweep service stores in a failed job's record and serves from
// /jobs/{id}/flight when a run aborts.
type FlightDump struct {
	Corr     string        `json:"corr,omitempty"`     // job correlation ID
	Key      string        `json:"key,omitempty"`      // config fingerprint / store key
	Reason   string        `json:"reason"`             // "watchdog-stall", "audit-violation", "run-error"
	Error    string        `json:"error,omitempty"`    // the triggering error's text
	Snapshot string        `json:"snapshot,omitempty"` // engine state at failure
	Entries  []FlightEntry `json:"entries"`
	Dropped  uint64        `json:"dropped,omitempty"` // ring evictions before the dump
}

// Dump freezes the recorder into a FlightDump with the given failure
// context. Returns nil for a nil recorder.
func (fr *FlightRecorder) Dump(reason, snapshot string) *FlightDump {
	if fr == nil {
		return nil
	}
	return &FlightDump{
		Reason:   reason,
		Snapshot: snapshot,
		Entries:  fr.Entries(),
		Dropped:  fr.dropped,
	}
}

// FlightError attaches a flight recording to the error that aborted a run,
// so layers above the harness (the sweep service) can store and serve the
// dump without importing harness types. It unwraps to the underlying error.
type FlightError struct {
	Dump *FlightDump
	Err  error
}

func (e *FlightError) Error() string { return e.Err.Error() }
func (e *FlightError) Unwrap() error { return e.Err }
