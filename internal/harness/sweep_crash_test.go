package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dap/internal/store"
	"dap/internal/sweep"
)

// The kill-and-restart integration test: a sweep service process is crashed
// mid-sweep at a deterministic point (as its 3rd simulation starts, which
// with one worker is right after the 2nd result-store write), then a second
// process opens the same state directory and runs the persisted sweep
// again. The resumed sweep must
//
//   - complete every job,
//   - produce result payloads byte-identical to an uninterrupted in-process
//     reference run, and
//   - never re-simulate a job whose result already landed in the store
//     (each key is simulated exactly once across both processes).
//
// The "process" is this test binary re-executed against its own helper test,
// so the crash is a real os.Exit in a real separate process — not a
// goroutine standing in for one.

const (
	sweepHelperEnv     = "DAP_SWEEP_HELPER_DIR"
	sweepCrashAtEnv    = "DAP_CRASH_AT_EXEC"
	sweepCrashExitCode = 7
)

// crashSweepSpec is the sweep both processes work on: 4 tiny jobs.
func crashSweepSpec() sweep.SweepSpec {
	return sweep.SweepSpec{
		Mixes:    []string{"mcf", "omnetpp"},
		Policies: []string{"baseline", "dap"},
		Cores:    2, Instr: 40_000, Warm: 20_000, Quick: true,
	}
}

// openCrashSweep opens the sweep service the way both processes do: keys
// from the config fingerprint, one worker so execution order is
// submission order.
func openCrashSweep(t *testing.T, dir string, exec sweep.Executor) *sweep.Service {
	t.Helper()
	svc, err := sweep.Open(dir, exec, sweep.Config{Workers: 1, Key: SweepKey, Validate: SweepValidate})
	if err != nil {
		t.Fatalf("open sweep service: %v", err)
	}
	return svc
}

// TestSweepCrashHelper is the subprocess body (skipped in a normal test
// run): it opens the sweep service under $DAP_SWEEP_HELPER_DIR, submits the
// sweep on first start, and runs to completion — or exits as the
// $DAP_CRASH_AT_EXEC-th simulation starts.
func TestSweepCrashHelper(t *testing.T) {
	dir := os.Getenv(sweepHelperEnv)
	if dir == "" {
		t.Skip("subprocess helper (driven by TestSweepResumeAfterKill)")
	}
	crashAt, _ := strconv.ParseInt(os.Getenv(sweepCrashAtEnv), 10, 64)

	// Log each actual simulation so the parent can prove completed jobs were
	// served from the store, not re-run.
	var execs atomic.Int64
	exec := func(ctx context.Context, spec sweep.JobSpec) ([]byte, error) {
		if execs.Add(1) == crashAt {
			os.Exit(sweepCrashExitCode)
		}
		payload, err := SweepExecutorCkpt(nil)(ctx, spec)
		if err == nil {
			fmt.Printf("SIMDONE %s\n", SweepKey(spec))
		}
		return payload, err
	}

	svc := openCrashSweep(t, dir, exec)
	if len(svc.Sweeps()) == 0 { // first start: submit; restarts resume
		if _, err := svc.Submit(crashSweepSpec()); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	svc.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := svc.Wait(ctx); err != nil {
		t.Fatalf("sweep never drained: %v", err)
	}
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ccancel()
	if err := svc.Close(cctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	fmt.Println("ALL DONE")
}

// runSweepHelper re-executes the test binary against the helper with the
// given state dir and crash env, returning combined output and exit code.
func runSweepHelper(t *testing.T, dir string, extraEnv ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSweepCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), sweepHelperEnv+"="+dir)
	cmd.Env = append(cmd.Env, extraEnv...)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run helper: %v\n%s", err, buf.String())
	}
	return buf.String(), code
}

func simDoneKeys(out string) []string {
	var keys []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "SIMDONE "); ok {
			keys = append(keys, strings.TrimSpace(rest))
		}
	}
	return keys
}

func TestSweepResumeAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess simulations in -short mode")
	}
	dir := t.TempDir()
	specs := crashSweepSpec().Expand()

	// Uninterrupted in-process reference: the payloads the resumed sweep
	// must reproduce bit-for-bit.
	reference := make(map[string][]byte, len(specs))
	for _, spec := range specs {
		payload, err := SweepExecutorCkpt(nil)(context.Background(), spec)
		if err != nil {
			t.Fatalf("reference run %s: %v", spec.String(), err)
		}
		reference[SweepKey(spec)] = payload
	}

	// Process 1: crash as the 3rd simulation starts — right after the 2nd
	// result landed in the store, with nothing else recording that it did.
	out1, code1 := runSweepHelper(t, dir, sweepCrashAtEnv+"=3")
	if code1 != sweepCrashExitCode {
		t.Fatalf("process 1 exited %d; want crash exit %d\n%s", code1, sweepCrashExitCode, out1)
	}
	keys1 := simDoneKeys(out1)
	if len(keys1) != 2 {
		t.Fatalf("process 1 simulated %d jobs before the crash; want 2\n%s", len(keys1), out1)
	}

	// Process 2: same dir, no crash. It must run the persisted sweep again,
	// skip the stored jobs and finish the remaining ones.
	out2, code2 := runSweepHelper(t, dir)
	if code2 != 0 {
		t.Fatalf("resumed process exited %d\n%s", code2, out2)
	}
	if !strings.Contains(out2, "ALL DONE") {
		t.Fatalf("resumed process never drained\n%s", out2)
	}
	keys2 := simDoneKeys(out2)

	// No job was simulated twice across the crash: every stored result was
	// reused.
	seen := map[string]bool{}
	for _, k := range append(append([]string(nil), keys1...), keys2...) {
		if seen[k] {
			t.Fatalf("key %s simulated in both processes (stored result not reused)", k)
		}
		seen[k] = true
	}
	if got := len(keys1) + len(keys2); got != len(specs) {
		t.Fatalf("simulated %d jobs across both processes; want exactly %d", got, len(specs))
	}

	// The service on disk agrees: every job done, nothing failed or queued.
	svc := openCrashSweep(t, dir, nil)
	sweeps := svc.Sweeps()
	if len(sweeps) != 1 || sweeps[0].Total != len(specs) || sweeps[0].Counts["done"] != len(specs) {
		t.Fatalf("final sweeps = %+v", sweeps)
	}

	// Bit-identical results: the interrupted-and-resumed sweep's merged
	// store matches the uninterrupted reference byte for byte.
	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range reference {
		got, ok := st.Get(key)
		if !ok {
			t.Fatalf("key %s missing from resumed store", key)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %s: resumed result differs from uninterrupted reference", key)
		}
	}
	if st.Len() != len(reference) {
		t.Fatalf("store holds %d entries; want %d", st.Len(), len(reference))
	}
}
