package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dap/internal/obs"
)

// RunState is a run's lifecycle state.
type RunState int32

// Run states.
const (
	RunActive RunState = iota
	RunDone
	RunAborted
)

func (s RunState) String() string {
	switch s {
	case RunActive:
		return "running"
	case RunDone:
		return "done"
	}
	return "aborted"
}

// Window is one published sampler window: the simulated cycle it closed at
// and the exported per-column values (deltas/rates already applied). The
// Values slice is owned by the Window and never mutated after Publish.
type Window struct {
	Cycle  uint64    `json:"cycle"`
	Values []float64 `json:"values"`
}

// Decision is one published partitioner decision: the per-window solver
// output and its optimality-gap audit, converted by the harness from the
// core recorder's record (telemetry stays import-free of the simulator).
type Decision struct {
	Cycle       uint64    `json:"cycle"`
	Window      uint64    `json:"window"`
	Gap         float64   `json:"gap"`
	Delivered   float64   `json:"delivered_gbps"`
	Optimal     float64   `json:"optimal_gbps"`
	Fractions   []float64 `json:"fractions"`
	OptimalFrac []float64 `json:"optimal_fractions"`
	FWB         int64     `json:"fwb"`
	WB          int64     `json:"wb"`
	IFRM        int64     `json:"ifrm"`
	SFRM        int64     `json:"sfrm"`
	WT          int64     `json:"wt"`
	Partitioned bool      `json:"partitioned"`
}

// RunInfo is the immutable identity of a registered run.
type RunInfo struct {
	Mix         string `json:"mix"`
	Arch        string `json:"arch"`
	Policy      string `json:"policy"`
	Fingerprint string `json:"fingerprint"`
	Seed        uint64 `json:"seed"`
	// Horizon is the run's cycle budget (the RunWhile limit): progress is
	// reported as simulated cycles against it. It is an upper bound — most
	// runs retire their instruction budget long before the horizon.
	Horizon uint64 `json:"horizon_cycles"`
}

// Run tracks one live or recently finished simulation. The publishing side
// (the simulation thread) uses Progress and Publish; Progress and the
// /metrics scrape path are lock-free (atomic store / atomic pointer load),
// while Publish takes the run's mutex only to push into the bounded window
// ring and hand copies to SSE subscribers — it never blocks on them
// (slow subscribers drop windows) and never reads simulated state.
type Run struct {
	ID      int64
	Info    RunInfo
	Started time.Time

	columns  []string
	progress atomic.Uint64
	state    atomic.Int32
	latest   atomic.Pointer[Window]

	reg *RunRegistry

	mu       sync.Mutex
	windows  obs.Ring[Window]
	subs     map[chan Window]struct{}
	dropped  uint64
	finished time.Time
	abortMsg string
	summary  map[string]float64

	decSources []string
	decisions  obs.Ring[Decision]
}

// ringCap bounds each run's retained window and decision history (the SSE
// catch-up replay and the /runs/{id} JSON series).
const ringCap = 512

// SetColumns records the sampler's column names. It must be called before
// the first Publish and is immutable afterwards.
func (r *Run) SetColumns(cols []string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.columns = append([]string(nil), cols...)
	r.mu.Unlock()
}

// Columns returns the column names shared by every published window.
func (r *Run) Columns() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.columns
}

// Progress records simulated cycles completed (lock-free).
func (r *Run) Progress(cycles uint64) {
	if r == nil {
		return
	}
	r.progress.Store(cycles)
}

// Publish records one closed sampler window: vals is copied, the copy
// becomes the lock-free /metrics snapshot, lands in the window ring, and is
// fanned out to SSE subscribers with a non-blocking send.
func (r *Run) Publish(cycle uint64, vals []float64) {
	if r == nil {
		return
	}
	w := Window{Cycle: cycle, Values: append([]float64(nil), vals...)}
	r.latest.Store(&w)
	r.mu.Lock()
	r.windows.Push(w)
	for ch := range r.subs {
		select {
		case ch <- w:
		default:
			r.dropped++
		}
	}
	r.mu.Unlock()
}

// SetDecisionSources names the bandwidth sources decision fraction vectors
// are ordered by. Call before the first PublishDecision.
func (r *Run) SetDecisionSources(names []string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.decSources = append([]string(nil), names...)
	r.mu.Unlock()
}

// PublishDecision records one partitioner decision into the run's bounded
// decision ring (oldest evicted), mirroring Publish's observer contract: it
// copies values under the run mutex and never reads simulated state.
func (r *Run) PublishDecision(d Decision) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.decisions.Push(d)
	r.mu.Unlock()
}

// DecisionsSnapshot is the JSON view served by /runs/{id}/decisions.
type DecisionsSnapshot struct {
	ID      int64      `json:"id"`
	Sources []string   `json:"sources"`
	Total   uint64     `json:"total"`
	Series  []Decision `json:"series"`
}

// Decisions returns the retained decision series (oldest first) plus the
// source names and total published count.
func (r *Run) Decisions() DecisionsSnapshot {
	if r == nil {
		return DecisionsSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return DecisionsSnapshot{
		ID: r.ID, Sources: r.decSources,
		Total:  uint64(r.decisions.Len()) + r.decisions.Evicted(),
		Series: r.decisions.All(),
	}
}

// Latest returns the most recent published window (nil before the first).
func (r *Run) Latest() *Window {
	if r == nil {
		return nil
	}
	return r.latest.Load()
}

// State returns the run's lifecycle state.
func (r *Run) State() RunState { return RunState(r.state.Load()) }

// Finish marks the run done (or aborted when abort != nil), records the
// final summary numbers, and closes every subscriber stream.
func (r *Run) Finish(abort error, summary map[string]float64) {
	if r == nil {
		return
	}
	st := RunDone
	if abort != nil {
		st = RunAborted
	}
	r.state.Store(int32(st))
	r.mu.Lock()
	r.finished = time.Now()
	if abort != nil {
		r.abortMsg = abort.Error()
	}
	r.summary = summary
	for ch := range r.subs {
		close(ch)
	}
	r.subs = nil
	r.mu.Unlock()
	if r.reg != nil {
		r.reg.finish(r, st)
	}
}

// Subscribe returns the retained window history (oldest first) plus a
// channel delivering every subsequently published window. The channel is
// closed when the run finishes; cancel detaches early. A finished run
// returns its history and an already-closed channel.
func (r *Run) Subscribe() (history []Window, live <-chan Window, cancel func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	history = r.windows.All()
	ch := make(chan Window, 256)
	if r.State() != RunActive {
		close(ch)
		return history, ch, func() {}
	}
	if r.subs == nil {
		r.subs = make(map[chan Window]struct{})
	}
	r.subs[ch] = struct{}{}
	return history, ch, func() {
		r.mu.Lock()
		if _, ok := r.subs[ch]; ok {
			delete(r.subs, ch)
			close(ch)
		}
		r.mu.Unlock()
	}
}

// RunSnapshot is the JSON view of a run served by /runs and /runs/{id}.
type RunSnapshot struct {
	ID       int64   `json:"id"`
	RunInfo  RunInfo `json:"info"`
	State    string  `json:"state"`
	Started  string  `json:"started"`
	Finished string  `json:"finished,omitempty"`
	Progress uint64  `json:"progress_cycles"`
	Windows  uint64  `json:"windows"`
	Dropped  uint64  `json:"dropped_windows"`
	Abort    string  `json:"abort,omitempty"`

	Summary map[string]float64 `json:"summary,omitempty"`
	// Columns and Series are only populated on the /runs/{id} detail view.
	Columns []string `json:"columns,omitempty"`
	Series  []Window `json:"series,omitempty"`
}

func (r *Run) snapshot(detail bool) RunSnapshot {
	s := RunSnapshot{
		ID:       r.ID,
		RunInfo:  r.Info,
		State:    r.State().String(),
		Started:  r.Started.Format(time.RFC3339Nano),
		Progress: r.progress.Load(),
	}
	r.mu.Lock()
	s.Windows = uint64(r.windows.Len()) + r.windows.Evicted()
	if !r.finished.IsZero() {
		s.Finished = r.finished.Format(time.RFC3339Nano)
	}
	s.Abort = r.abortMsg
	s.Summary = r.summary
	s.Dropped = r.dropped
	if detail {
		s.Columns = r.columns
	}
	r.mu.Unlock()
	if detail {
		hist, _, cancel := r.Subscribe()
		cancel()
		s.Series = hist
	}
	return s
}

// RunRegistry tracks every simulation the process runs: active runs plus a
// bounded ring of recently finished ones, with lifecycle counters published
// to a metrics Registry and a scrape-time collector exposing each tracked
// run's progress and latest sampler window as labeled gauges.
type RunRegistry struct {
	mu     sync.Mutex
	nextID int64
	active map[int64]*Run
	recent obs.Ring[*Run] // most recent finished runs, newest last

	started, finished, aborted *Series
}

// recentCap bounds how many finished runs stay inspectable over HTTP.
const recentCap = 32

// metricsRuns caps how many runs (active + newest finished) the /metrics
// collector expands into per-column series, so a long sweep cannot bloat
// the exposition unboundedly.
const metricsRuns = 16

// NewRunRegistry returns a run registry publishing lifecycle counters and
// the per-run collector into reg.
func NewRunRegistry(reg *Registry) *RunRegistry {
	rr := &RunRegistry{active: make(map[int64]*Run), recent: obs.NewRing[*Run](recentCap)}
	rr.started = reg.Counter("sim_runs_started_total", "Simulation runs registered since process start.")
	rr.finished = reg.Counter("sim_runs_finished_total", "Simulation runs that completed normally.")
	rr.aborted = reg.Counter("sim_runs_aborted_total", "Simulation runs that ended with a watchdog, deadlock or audit abort.")
	reg.RegisterCollector(rr.collect)
	return rr
}

// Runs is the process-wide run registry; the harness registers every run
// here and the -serve HTTP endpoints read from it.
var Runs = NewRunRegistry(Default)

// Start registers a new run.
func (rr *RunRegistry) Start(info RunInfo) *Run {
	rr.mu.Lock()
	rr.nextID++
	r := &Run{ID: rr.nextID, Info: info, Started: time.Now(), reg: rr,
		windows: obs.NewRing[Window](ringCap), decisions: obs.NewRing[Decision](ringCap)}
	rr.active[r.ID] = r
	rr.mu.Unlock()
	rr.started.Inc()
	return r
}

func (rr *RunRegistry) finish(r *Run, st RunState) {
	rr.mu.Lock()
	delete(rr.active, r.ID)
	rr.recent.Push(r)
	rr.mu.Unlock()
	if st == RunAborted {
		rr.aborted.Inc()
	} else {
		rr.finished.Inc()
	}
}

// Get returns a tracked run by ID (active or recent), or nil.
func (rr *RunRegistry) Get(id int64) *Run {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if r := rr.active[id]; r != nil {
		return r
	}
	for i := rr.recent.Len() - 1; i >= 0; i-- {
		if r := rr.recent.At(i); r.ID == id {
			return r
		}
	}
	return nil
}

// tracked returns the runs the HTTP layer can see: every active run plus
// the recent ring, newest first.
func (rr *RunRegistry) tracked() []*Run {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	out := make([]*Run, 0, len(rr.active)+rr.recent.Len())
	for _, r := range rr.active {
		out = append(out, r)
	}
	out = append(out, rr.recent.All()...)
	// active runs first, then newest-first by ID within each group
	sortRuns(out)
	return out
}

func sortRuns(rs []*Run) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && runLess(rs[j], rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func runLess(a, b *Run) bool {
	aa, ba := a.State() == RunActive, b.State() == RunActive
	if aa != ba {
		return aa
	}
	return a.ID > b.ID
}

// Snapshots returns the JSON summaries for /runs.
func (rr *RunRegistry) Snapshots() []RunSnapshot {
	runs := rr.tracked()
	out := make([]RunSnapshot, len(runs))
	for i, r := range runs {
		out[i] = r.snapshot(false)
	}
	return out
}

// ActiveCount returns the number of currently running simulations.
func (rr *RunRegistry) ActiveCount() int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return len(rr.active)
}

// collect is the scrape-time collector: per tracked run (bounded by
// metricsRuns), progress/horizon gauges and one gauge per sampler column
// from the run's latest window, all labeled {run,mix}. The window read is a
// single atomic pointer load — the lock-free snapshot path that lets
// /metrics be scraped mid-run without perturbing the simulation.
func (rr *RunRegistry) collect(emit Emit) {
	runs := rr.tracked()
	if len(runs) > metricsRuns {
		runs = runs[:metricsRuns]
	}
	for _, r := range runs {
		labels := []Label{
			{"run", strconv.FormatInt(r.ID, 10)},
			{"mix", r.Info.Mix},
		}
		emit("sim_run_progress_cycles", "Simulated cycles completed by the run.", GaugeKind, labels, float64(r.progress.Load()))
		emit("sim_run_horizon_cycles", "The run's cycle budget (RunWhile limit).", GaugeKind, labels, float64(r.Info.Horizon))
		emit("sim_run_active", "1 while the run is executing, 0 once finished.", GaugeKind, labels, b2f(r.State() == RunActive))
		w := r.Latest()
		if w == nil {
			continue
		}
		cols := r.Columns()
		if len(cols) != len(w.Values) {
			continue
		}
		for i, c := range cols {
			emit(Sanitize(c), "Latest sampler window value for probe "+c+".", GaugeKind, labels, w.Values[i])
		}
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
