package sweep

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dap/internal/store"
)

func openSvc(t *testing.T, dir string, exec Executor, cfg Config) *Service {
	t.Helper()
	svc, err := Open(dir, exec, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return svc
}

func submitT(t *testing.T, svc *Service, spec SweepSpec) Sweep {
	t.Helper()
	sw, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return sw
}

func waitIdle(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Wait(ctx); err != nil {
		t.Fatalf("service never caught up: %v (sweeps %+v)", err, svc.Sweeps())
	}
}

func closeSvc(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// runAll starts the service, waits until every submitted sweep ran, and
// closes it.
func runAll(t *testing.T, svc *Service) {
	t.Helper()
	svc.Start()
	waitIdle(t, svc)
	closeSvc(t, svc)
}

// echoExec returns a deterministic payload derived from the spec.
func echoExec(_ context.Context, spec JobSpec) ([]byte, error) {
	return []byte("result-of-" + spec.String()), nil
}

// countingExec wraps an executor and records the mix of every execution.
type countingExec struct {
	mu    sync.Mutex
	mixes []string
	next  Executor
}

func (c *countingExec) exec(ctx context.Context, spec JobSpec) ([]byte, error) {
	c.mu.Lock()
	c.mixes = append(c.mixes, spec.Mix)
	c.mu.Unlock()
	return c.next(ctx, spec)
}

func (c *countingExec) ran() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.mixes...)
}

// snapshotT is one sweep's snapshot, with per-job detail when detail is
// set.
func snapshotT(t *testing.T, svc *Service, id int64, detail bool) SweepSnapshot {
	t.Helper()
	sw := svc.find(id)
	if sw == nil {
		t.Fatalf("sweep %d not found", id)
	}
	return svc.snapshot(sw, detail)
}

func counts(t *testing.T, svc *Service, id int64) map[string]int {
	t.Helper()
	return snapshotT(t, svc, id, false).Counts
}

func TestSubmitExpandOrder(t *testing.T) {
	svc := openSvc(t, t.TempDir(), echoExec, Config{})
	sw := submitT(t, svc, SweepSpec{
		Mixes: []string{"mcf", "lbm"}, Policies: []string{"baseline", "dap"}, Seeds: []uint64{0, 1},
	})
	if len(sw.Jobs) != 8 {
		t.Fatalf("expanded %d jobs; want 8 (2 mixes x 2 policies x 2 seeds)", len(sw.Jobs))
	}
	// Mix-major, then arch, policy, seed; IDs follow that order.
	j1, j2, j3 := sw.Jobs[0], sw.Jobs[1], sw.Jobs[2]
	if j1.ID != 1 || j1.Spec.Mix != "mcf" || j1.Spec.Arch != "sectored" || j1.Spec.Policy != "baseline" || j1.Spec.Seed != 0 {
		t.Fatalf("job 1 = %+v", j1)
	}
	if j2.ID != 2 || j2.Spec.Seed != 1 || j3.ID != 3 || j3.Spec.Policy != "dap" {
		t.Fatalf("jobs 2, 3 = %+v, %+v", j2, j3)
	}
	if sw.Jobs[4].Spec.Mix != "lbm" || j1.Corr() != "s1-j1" || j1.Key != j1.Spec.String() {
		t.Fatalf("job 5 = %+v, job 1 corr %q key %q", sw.Jobs[4], j1.Corr(), j1.Key)
	}
	// A second sweep continues both ID sequences.
	sw2 := submitT(t, svc, SweepSpec{Mixes: []string{"milc"}})
	if sw2.ID != 2 || sw2.Jobs[0].ID != 9 || sw2.Jobs[0].Corr() != "s2-j9" {
		t.Fatalf("second sweep = id %d, job %+v", sw2.ID, sw2.Jobs[0])
	}
}

func TestValidateRejectsAtSubmission(t *testing.T) {
	dir := t.TempDir()
	svc := openSvc(t, dir, echoExec, Config{Validate: func(js JobSpec) error {
		if js.Mix == "bogus" {
			return fmt.Errorf("unknown mix %q", js.Mix)
		}
		return nil
	}})
	if _, err := svc.Submit(SweepSpec{Mixes: []string{"mcf", "bogus"}}); err == nil {
		t.Fatal("Submit accepted an invalid spec")
	}
	if n := len(svc.Sweeps()); n != 0 {
		t.Fatalf("rejected sweep is listed (%d sweeps)", n)
	}
	// Nothing was persisted either.
	if n := len(openSvc(t, dir, echoExec, Config{}).Sweeps()); n != 0 {
		t.Fatalf("rejected sweep persisted (%d sweeps after reopen)", n)
	}
}

func TestSubmitEmptySweepFails(t *testing.T) {
	svc := openSvc(t, t.TempDir(), echoExec, Config{})
	if _, err := svc.Submit(SweepSpec{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestServiceRunsSweepToCompletion(t *testing.T) {
	dir := t.TempDir()
	svc := openSvc(t, dir, echoExec, Config{Workers: 2})
	sw := submitT(t, svc, SweepSpec{Mixes: []string{"a", "b", "c"}, Seeds: []uint64{0, 1}})
	runAll(t, svc)

	snap := snapshotT(t, svc, sw.ID, true)
	if snap.Total != 6 || snap.Counts["done"] != 6 {
		t.Fatalf("snapshot = %+v", snap)
	}
	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Len(); n != 6 {
		t.Fatalf("store has %d entries; want 6", n)
	}
	// Every result is the executor's payload, addressable by job key.
	for _, j := range sw.Jobs {
		got, ok := st.Get(j.Key)
		if !ok || string(got) != "result-of-"+j.Spec.String() {
			t.Fatalf("job %d result = %q, %v", j.ID, got, ok)
		}
	}
	if svc.CacheHits.Load() != 0 {
		t.Fatalf("CacheHits = %d on a fresh store", svc.CacheHits.Load())
	}
}

func TestStoredResultCompletesJob(t *testing.T) {
	c := &countingExec{next: echoExec}
	svc := openSvc(t, t.TempDir(), c.exec, Config{Workers: 1})
	sw := submitT(t, svc, SweepSpec{Mixes: []string{"a"}})
	// Not started: the job is queued and the service is not idle.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := svc.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait with a queued job = %v; want the deadline", err)
	}
	if got := counts(t, svc, sw.ID); got["queued"] != 1 {
		t.Fatalf("counts before Start = %v; want 1 queued", got)
	}

	runAll(t, svc)
	// Storing the result is what completes the job, once.
	j := sw.Jobs[0]
	if !svc.results.Has(j.Key) {
		t.Fatalf("no result stored under %q", j.Key)
	}
	if got := counts(t, svc, sw.ID); got["done"] != 1 {
		t.Fatalf("counts = %v; want 1 done", got)
	}
	if ran := c.ran(); len(ran) != 1 {
		t.Fatalf("executed %v; want the job once", ran)
	}
}

func TestIdenticalJobsShareStoredResult(t *testing.T) {
	c := &countingExec{next: echoExec}
	svc := openSvc(t, t.TempDir(), c.exec, Config{Workers: 1})
	// Two sweeps with the same single job: the second must be a cache hit.
	submitT(t, svc, SweepSpec{Mixes: []string{"a"}})
	svc.Start()
	waitIdle(t, svc)
	submitT(t, svc, SweepSpec{Mixes: []string{"a"}})
	waitIdle(t, svc)
	closeSvc(t, svc)

	if n := len(c.ran()); n != 1 {
		t.Fatalf("executor ran %d times; want 1 (second job served from store)", n)
	}
	if n := svc.CacheHits.Load(); n != 1 {
		t.Fatalf("CacheHits = %d; want 1", n)
	}
	for _, id := range []int64{1, 2} {
		if got := counts(t, svc, id); got["done"] != 1 {
			t.Fatalf("sweep %d counts = %v", id, got)
		}
	}
}

func TestFailedJobIsStoredNotRetried(t *testing.T) {
	dir := t.TempDir()
	doomed := &countingExec{next: func(context.Context, JobSpec) ([]byte, error) {
		return nil, errors.New("doomed")
	}}
	svc := openSvc(t, dir, doomed.exec, Config{Workers: 1})
	sw := submitT(t, svc, SweepSpec{Mixes: []string{"a", "b"}})
	runAll(t, svc)
	if n := len(doomed.ran()); n != 2 {
		t.Fatalf("executor ran %d times; want 2 (one attempt per job)", n)
	}

	// A restart runs the persisted sweep again, but the failures are stored
	// outcomes: nothing executes, and both jobs still read failed.
	again := &countingExec{next: echoExec}
	svc2 := openSvc(t, dir, again.exec, Config{Workers: 1})
	runAll(t, svc2)
	if n := len(again.ran()); n != 0 {
		t.Fatalf("restart re-executed %d failed jobs", n)
	}
	if n := svc2.CacheHits.Load(); n != 2 {
		t.Fatalf("CacheHits = %d; want 2", n)
	}
	snap := snapshotT(t, svc2, sw.ID, true)
	for _, j := range snap.Jobs {
		if j.State != "failed" || j.Error != "doomed" {
			t.Fatalf("job = %+v; want failed with error doomed", j)
		}
	}
}

func TestReopenRunsOnlyMissingJobs(t *testing.T) {
	dir := t.TempDir()
	svc := openSvc(t, dir, echoExec, Config{})
	sw := submitT(t, svc, SweepSpec{Mixes: []string{"a", "b", "c", "d"}})
	// The state a process killed mid-sweep leaves behind: the spec, plus the
	// results it stored (jobs 1 and 3 here) and nothing else.
	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []Job{sw.Jobs[0], sw.Jobs[2]} {
		payload, _ := echoExec(context.Background(), j.Spec)
		if err := st.Put(j.Key, payload); err != nil {
			t.Fatal(err)
		}
	}

	c := &countingExec{next: echoExec}
	svc2 := openSvc(t, dir, c.exec, Config{Workers: 1})
	if got := counts(t, svc2, sw.ID); got["done"] != 2 || got["queued"] != 2 {
		t.Fatalf("reopened counts = %v; want 2 done, 2 queued", got)
	}
	runAll(t, svc2)
	if ran := c.ran(); len(ran) != 2 || ran[0] != "b" || ran[1] != "d" {
		t.Fatalf("reopen executed %v; want exactly the missing jobs [b d]", ran)
	}
	if n := svc2.CacheHits.Load(); n != 2 {
		t.Fatalf("CacheHits = %d; want 2", n)
	}
	if got := counts(t, svc2, sw.ID); got["done"] != 4 {
		t.Fatalf("counts after resume = %v", got)
	}
	// New submissions continue the ID sequences of the persisted sweeps.
	sw2 := submitT(t, svc2, SweepSpec{Mixes: []string{"e"}})
	if sw2.ID != 2 || sw2.Jobs[0].ID != 5 {
		t.Fatalf("ID sequence reset: sweep %d job %d", sw2.ID, sw2.Jobs[0].ID)
	}
}

// blockingExec blocks each execution until release is closed, announcing
// the first one on started.
func blockingExec(started chan<- struct{}, release <-chan struct{}) *countingExec {
	var once sync.Once
	return &countingExec{next: func(ctx context.Context, spec JobSpec) ([]byte, error) {
		once.Do(func() { close(started) })
		<-release
		return echoExec(ctx, spec)
	}}
}

func TestReopenAfterCrashBeforePut(t *testing.T) {
	dir := t.TempDir()
	started, release := make(chan struct{}), make(chan struct{})
	crashed := openSvc(t, dir, blockingExec(started, release).exec, Config{Workers: 1})
	sw := submitT(t, crashed, SweepSpec{Mixes: []string{"a"}})
	crashed.Start()
	<-started
	// The process dies while the job executes, before its result is stored:
	// a new process opening dir finds the spec and no outcome.
	c := &countingExec{next: echoExec}
	svc := openSvc(t, dir, c.exec, Config{Workers: 1})
	if got := counts(t, svc, sw.ID); got["queued"] != 1 {
		t.Fatalf("reopened counts = %v; want the unstored job queued", got)
	}
	runAll(t, svc)
	if ran := c.ran(); len(ran) != 1 {
		t.Fatalf("reopen executed %v; want the unstored job once", ran)
	}
	if got := counts(t, svc, sw.ID); got["done"] != 1 || svc.CacheHits.Load() != 0 {
		t.Fatalf("counts = %v, CacheHits = %d; want done by execution", got, svc.CacheHits.Load())
	}
	// Let the abandoned execution return so the test leaves nothing running.
	close(release)
	closeSvc(t, crashed)
}

func TestReopenAfterCrashAfterPut(t *testing.T) {
	dir := t.TempDir()
	c := &countingExec{next: echoExec}
	crashed := openSvc(t, dir, c.exec, Config{Workers: 1})
	sw := submitT(t, crashed, SweepSpec{Mixes: []string{"a"}})
	crashed.Start()
	waitIdle(t, crashed)
	// The process dies after storing the result, without a graceful Close:
	// a new process opening dir reads the job done from the store and does
	// not simulate it again.
	svc := openSvc(t, dir, c.exec, Config{Workers: 1})
	if got := counts(t, svc, sw.ID); got["done"] != 1 {
		t.Fatalf("reopened counts = %v; want the stored job done", got)
	}
	runAll(t, svc)
	if ran := c.ran(); len(ran) != 1 {
		t.Fatalf("executed %v; the stored job must not run again", ran)
	}
	if n := svc.CacheHits.Load(); n != 1 {
		t.Fatalf("CacheHits = %d; want 1", n)
	}
	closeSvc(t, crashed)
}

func TestGracefulCloseDrainsInFlight(t *testing.T) {
	dir := t.TempDir()
	started, release := make(chan struct{}), make(chan struct{})
	c := blockingExec(started, release)
	svc := openSvc(t, dir, c.exec, Config{Workers: 1})
	sw := submitT(t, svc, SweepSpec{Mixes: []string{"a", "b"}})
	svc.Start()
	<-started
	snap := snapshotT(t, svc, sw.ID, true)
	if snap.Jobs[0].State != "running" || snap.Jobs[1].State != "queued" {
		t.Fatalf("in-flight snapshot = %+v", snap.Jobs)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- svc.Close(ctx)
	}()
	// Close must wait for the in-flight job, not abandon it.
	select {
	case err := <-done:
		t.Fatalf("Close returned before the in-flight job finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The in-flight job finished and stored its result; no new job started.
	if ran := c.ran(); len(ran) != 1 {
		t.Fatalf("executed %v; want only the in-flight job", ran)
	}
	if got := counts(t, svc, sw.ID); got["done"] != 1 || got["queued"] != 1 {
		t.Fatalf("counts after Close = %v; want 1 done, 1 queued", got)
	}
}

func TestCancelSweep(t *testing.T) {
	dir := t.TempDir()
	started, release := make(chan struct{}), make(chan struct{})
	c := blockingExec(started, release)
	svc := openSvc(t, dir, c.exec, Config{Workers: 1})
	sw := submitT(t, svc, SweepSpec{Mixes: []string{"mcf", "lbm", "milc"}})
	svc.Start()
	<-started // the in-flight job survives cancellation
	if err := svc.Cancel(sw.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitIdle(t, svc)
	closeSvc(t, svc)
	if ran := c.ran(); len(ran) != 1 {
		t.Fatalf("executed %v after cancel; want only the in-flight job", ran)
	}
	snap := snapshotT(t, svc, sw.ID, false)
	if !snap.Cancelled || snap.Counts["cancelled"] != 2 || snap.Counts["done"] != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if err := svc.Cancel(99); err == nil {
		t.Fatal("Cancel of unknown sweep succeeded")
	}

	// The cancellation is in the persisted spec: a restart runs nothing.
	c2 := &countingExec{next: echoExec}
	svc2 := openSvc(t, dir, c2.exec, Config{Workers: 1})
	runAll(t, svc2)
	if ran := c2.ran(); len(ran) != 0 {
		t.Fatalf("restart executed %v from a cancelled sweep", ran)
	}
	snap = snapshotT(t, svc2, sw.ID, false)
	if !snap.Cancelled || snap.Counts["cancelled"] != 2 || snap.Counts["done"] != 1 {
		t.Fatalf("snapshot after restart = %+v", snap)
	}
}
