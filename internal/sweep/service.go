package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dap/internal/obs"
	"dap/internal/runner"
	"dap/internal/store"
	"dap/internal/telemetry"
)

// hExecute is the executor (simulation) wall clock of every executed job.
var hExecute = telemetry.Default.Histogram("sweep_execute_seconds",
	"Wall-clock executor (simulation) duration per executed job.", telemetry.DurationBuckets())

// Executor runs one job and returns its result payload (the bytes the store
// persists under the job's key). It must be deterministic in the spec: the
// same spec always yields byte-identical payloads, or the same error, which
// is what lets the service treat any stored outcome as final.
type Executor func(ctx context.Context, spec JobSpec) ([]byte, error)

// Config parameterizes a Service. The zero value runs GOMAXPROCS jobs at a
// time, keys jobs by JobSpec.String, accepts every spec and observes
// nothing.
type Config struct {
	// Workers is the number of a sweep's jobs executed concurrently
	// (0 = GOMAXPROCS).
	Workers int
	// Key derives the result-store key of a job (default JobSpec.String).
	// It must be a pure function of the spec.
	Key func(JobSpec) string
	// Validate, when non-nil, rejects malformed specs at submission so they
	// are never persisted (unknown mixes, bad arch names, ...).
	Validate func(JobSpec) error
	// Logger receives a correlation-ID-stamped record at every job edge
	// (enqueued, served from store, done, failed). nil logs nothing.
	Logger *slog.Logger
	// Tracer records the same edges as Chrome trace events, one Perfetto
	// track per job. nil disables tracing.
	Tracer *obs.JobTracer
}

// Failure is the outcome stored in place of a result when the executor
// returns an error. Every executor error depends only on the spec (it
// cannot resolve, the watchdog stalled, the auditor tripped), so the
// failure is as final as a result: the job is not retried, after a restart
// either. Flight carries the frozen flight recording of an aborted run.
type Failure struct {
	Error  string          `json:"error"`
	Flight *obs.FlightDump `json:"flight,omitempty"`
}

// failKey is the result-store key of a job's failure record.
func failKey(key string) string { return "failed-" + key }

// errBadSpec marks a submission that is rejected before anything is
// persisted.
var errBadSpec = errors.New("bad sweep spec")

// Service runs persisted sweeps against a result store. Everything it
// knows about progress is in that store; the only in-memory state is which
// jobs are executing right now.
//
// The completion protocol is the crash-safety contract:
//
//	store has an outcome for the key?  yes -> skip (CacheHits)
//	                                   no  -> execute -> store.Put(outcome)
//
// A crash before the Put leaves nothing behind, and the next start runs
// the job. A crash after it leaves a stored outcome, and the next start
// skips the job. Either way the merged results are byte-identical to an
// uninterrupted run, and no stored job is simulated twice.
type Service struct {
	cfg     Config
	exec    Executor
	specs   *store.Store // one entry per submitted sweep
	results *store.Store // key -> result payload; failKey(key) -> Failure

	// CacheHits counts jobs skipped because the store already held their
	// outcome.
	CacheHits atomic.Int64

	mu      sync.Mutex
	changed sync.Cond      // broadcast when a sweep is submitted or finished, or on Close
	sweeps  []*Sweep       // submission order
	running map[int64]bool // IDs of the jobs executing now
	ran     int            // sweeps the run loop has finished
	closed  bool           // set by Close: no new job starts
	done    chan struct{}  // closed when the run loop exits; nil before Start
}

// Open loads the sweeps persisted under dir/sweeps and the result store
// under dir/results. It starts nothing: call Start to run the sweeps, which
// after a crash resumes them where the store says they stopped.
func Open(dir string, exec Executor, cfg Config) (*Service, error) {
	if cfg.Key == nil {
		cfg.Key = JobSpec.String
	}
	cfg.Logger = obs.OrNop(cfg.Logger)
	specs, err := store.Open(filepath.Join(dir, "sweeps"))
	if err != nil {
		return nil, err
	}
	results, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, exec: exec, specs: specs, results: results, running: make(map[int64]bool)}
	s.changed.L = &s.mu
	for _, key := range specs.Keys() {
		raw, ok := specs.Get(key)
		if !ok {
			continue // quarantined as corrupt since Keys listed it
		}
		sw := new(Sweep)
		if err := json.Unmarshal(raw, sw); err != nil {
			return nil, fmt.Errorf("sweep: decode %s: %w", key, err)
		}
		s.sweeps = append(s.sweeps, sw)
	}
	sort.Slice(s.sweeps, func(i, k int) bool { return s.sweeps[i].ID < s.sweeps[k].ID })
	next := int64(1)
	for _, sw := range s.sweeps {
		sw.Jobs = s.expand(sw.Spec)
		number(sw, next)
		next += int64(len(sw.Jobs))
	}
	return s, nil
}

// expand lists a spec's jobs with their store keys, not yet numbered.
func (s *Service) expand(spec SweepSpec) []Job {
	specs := spec.Expand()
	jobs := make([]Job, len(specs))
	for i, js := range specs {
		jobs[i] = Job{Spec: js, Key: s.cfg.Key(js)}
	}
	return jobs
}

// number assigns a sweep's job IDs, starting at first.
func number(sw *Sweep, first int64) {
	for i := range sw.Jobs {
		sw.Jobs[i].ID, sw.Jobs[i].SweepID = first+int64(i), sw.ID
	}
}

// persist writes a sweep's spec entry (checksummed, fsynced, atomically
// renamed). Callers hold s.mu, which keeps IDs and rewrites ordered.
func (s *Service) persist(sw *Sweep) error {
	raw, _ := json.Marshal(sw) // strings, numbers and a current time: cannot fail
	return s.specs.Put(fmt.Sprintf("sweep-%d", sw.ID), raw)
}

// Submit validates a spec, persists it as the next sweep and queues it
// behind every earlier sweep. The sweep is durable when Submit returns. An
// empty expansion or a job the validator rejects is an error, and nothing
// is persisted.
func (s *Service) Submit(spec SweepSpec) (Sweep, error) {
	jobs := s.expand(spec)
	if len(jobs) == 0 {
		return Sweep{}, fmt.Errorf("sweep: %w: it expands to no jobs (mixes is empty)", errBadSpec)
	}
	if s.cfg.Validate != nil {
		for _, j := range jobs {
			if err := s.cfg.Validate(j.Spec); err != nil {
				return Sweep{}, fmt.Errorf("sweep: %w: invalid job %s: %w", errBadSpec, j.Spec.String(), err)
			}
		}
	}
	s.mu.Lock()
	sw := &Sweep{ID: 1, Spec: spec, Submitted: time.Now().UTC(), Jobs: jobs}
	first := int64(1)
	for _, earlier := range s.sweeps {
		sw.ID = earlier.ID + 1
		first += int64(len(earlier.Jobs))
	}
	number(sw, first)
	if err := s.persist(sw); err != nil {
		s.mu.Unlock()
		return Sweep{}, err
	}
	s.sweeps = append(s.sweeps, sw)
	out := *sw
	s.mu.Unlock()

	s.cfg.Logger.Info("sweep submitted", "sweep", out.ID, "jobs", len(out.Jobs))
	for _, j := range out.Jobs {
		corr := j.Corr()
		s.track(j)
		s.cfg.Tracer.Instant(uint64(j.ID), "submit", "corr", corr, "key", j.Key)
		s.cfg.Logger.Debug("job enqueued", "corr", corr, "key", j.Key,
			"mix", j.Spec.Mix, "arch", j.Spec.Arch, "policy", j.Spec.Policy, "seed", j.Spec.Seed)
	}
	s.changed.Broadcast()
	return out, nil
}

// track names a job's Perfetto track (the first name given wins).
func (s *Service) track(j Job) {
	s.cfg.Tracer.Track(uint64(j.ID), fmt.Sprintf("%s %s/%s/%s", j.Corr(), j.Spec.Mix, j.Spec.Arch, j.Spec.Policy))
}

// Cancel marks a sweep cancelled by rewriting its spec entry: its jobs
// that have not started never will; a job already executing finishes.
func (s *Service) Cancel(id int64) error {
	sw := s.find(id)
	if sw == nil {
		return fmt.Errorf("sweep: no such sweep %d", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sw.Cancelled {
		return nil
	}
	sw.Cancelled = true
	if err := s.persist(sw); err != nil {
		sw.Cancelled = false
		return err
	}
	s.cfg.Logger.Info("sweep cancelled", "sweep", id)
	return nil
}

// find returns the sweep with the given ID, or nil.
func (s *Service) find(id int64) *Sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sw := range s.sweeps {
		if sw.ID == id {
			return sw
		}
	}
	return nil
}

// Start launches the run loop: every persisted sweep in submission order,
// then each new one as it is submitted, until Close.
func (s *Service) Start() {
	s.done = make(chan struct{})
	go s.loop()
}

func (s *Service) loop() {
	defer close(s.done)
	for i := 0; ; i++ {
		s.mu.Lock()
		for i == len(s.sweeps) && !s.closed {
			s.changed.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		sw := s.sweeps[i]
		s.mu.Unlock()
		runner.ForEach(s.cfg.Workers, len(sw.Jobs), func(k int) {
			if s.claim(sw, sw.Jobs[k].ID) {
				s.runJob(sw.Jobs[k])
			}
		})
		s.mu.Lock()
		s.ran++
		s.mu.Unlock()
		s.changed.Broadcast()
	}
}

// claim marks a job running, unless Close was called or its sweep was
// cancelled. Holding s.mu for both checks means no job starts once Close
// or Cancel has returned.
func (s *Service) claim(sw *Sweep, id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || sw.Cancelled {
		return false
	}
	s.running[id] = true
	return true
}

// runJob runs one job through the completion protocol.
func (s *Service) runJob(j Job) {
	defer func() {
		s.mu.Lock()
		delete(s.running, j.ID)
		s.mu.Unlock()
	}()
	corr := j.Corr()
	tracer := s.cfg.Tracer
	log := s.cfg.Logger.With("corr", corr)
	s.track(j)
	// A stored outcome — this job's from before a crash, or an identical
	// job's from another sweep — is final.
	if _, ok := s.results.Get(j.Key); ok || s.results.Has(failKey(j.Key)) {
		s.CacheHits.Add(1)
		tracer.Instant(uint64(j.ID), "cache-hit", "corr", corr, "key", j.Key)
		log.Info("job served from store", "key", j.Key)
		return
	}

	// The executor sees the correlation ID and the service logger via the
	// context, so its records line up with the service's under one corr.
	ctx := obs.WithLogger(obs.WithCorr(context.Background(), corr), s.cfg.Logger)
	t0 := time.Now()
	payload, err := s.exec(ctx, j.Spec)
	hExecute.ObserveSince(t0)
	tracer.Span(uint64(j.ID), "execute", t0, time.Now(), "corr", corr)

	key := j.Key
	if err != nil {
		key = failKey(j.Key)
		f := Failure{Error: err.Error()}
		var fe *obs.FlightError
		if errors.As(err, &fe) {
			f.Flight = fe.Dump
		}
		payload, _ = json.Marshal(f) // strings and integers only: cannot fail
		tracer.Instant(uint64(j.ID), "failed", "corr", corr, "err", f.Error)
		log.Error("job failed", "key", j.Key, "err", f.Error, "flight", f.Flight != nil)
	}
	p0 := time.Now()
	if err := s.results.Put(key, payload); err != nil {
		log.Error("job outcome not stored; the job runs again on the next start", "err", err.Error())
		return
	}
	tracer.Span(uint64(j.ID), "store-put", p0, time.Now(), "corr", corr, "key", key)
	if key == j.Key {
		log.Info("job done", "key", key)
	}
}

// Wait blocks until the run loop has worked through every submitted sweep
// or the context expires.
func (s *Service) Wait(ctx context.Context) error {
	// Broadcasting under s.mu means the wakeup cannot fall between the
	// ctx.Err check below and changed.Wait.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.changed.Broadcast()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.ran < len(s.sweeps) && ctx.Err() == nil {
		s.changed.Wait()
	}
	return ctx.Err()
}

// Close stops the service gracefully: executing jobs finish and store
// their outcomes, and no new job starts. The context bounds the wait; a
// job cut off by it simply runs again on the next start.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.changed.Broadcast()
	if s.done == nil {
		return nil
	}
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sweep: close: %w", ctx.Err())
	}
}

// Sweeps lists every sweep's summary snapshot, oldest first.
func (s *Service) Sweeps() []SweepSnapshot {
	s.mu.Lock()
	sweeps := append([]*Sweep(nil), s.sweeps...)
	s.mu.Unlock()
	out := make([]SweepSnapshot, 0, len(sweeps))
	for _, sw := range sweeps {
		out = append(out, s.snapshot(sw, false))
	}
	return out
}

// snapshot derives every job's state: running from memory, done or failed
// from the result store, cancelled from the spec, queued otherwise. The
// running set is read before the store, so a job finishing in between reads
// as running or done, never as queued.
func (s *Service) snapshot(sw *Sweep, detail bool) SweepSnapshot {
	s.mu.Lock()
	cancelled := sw.Cancelled
	running := make([]bool, len(sw.Jobs))
	for i, j := range sw.Jobs {
		running[i] = s.running[j.ID]
	}
	s.mu.Unlock()

	snap := SweepSnapshot{
		ID: sw.ID, Spec: sw.Spec, Submitted: sw.Submitted.UTC().Format(time.RFC3339Nano),
		Cancelled: cancelled, Total: len(sw.Jobs), Counts: make(map[string]int),
	}
	for i, j := range sw.Jobs {
		js := JobSnapshot{Job: j, Corr: j.Corr()}
		switch {
		case running[i]:
			js.State = "running"
		case s.results.Has(j.Key):
			js.State = "done"
		case s.results.Has(failKey(j.Key)):
			js.State = "failed"
			if f, ok := s.failure(j.Key); ok {
				js.Error = f.Error
			}
		case cancelled:
			js.State = "cancelled"
		default:
			js.State = "queued"
		}
		snap.Counts[js.State]++
		if detail {
			snap.Jobs = append(snap.Jobs, js)
		}
	}
	return snap
}

// failure reads a job's stored failure record.
func (s *Service) failure(key string) (Failure, bool) {
	var f Failure
	raw, ok := s.results.Get(failKey(key))
	if !ok || json.Unmarshal(raw, &f) != nil {
		return Failure{}, false
	}
	return f, true
}

// job returns the job with the given ID.
func (s *Service) job(id int64) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sw := range s.sweeps {
		for _, j := range sw.Jobs {
			if j.ID == id {
				return j, true
			}
		}
	}
	return Job{}, false
}
