package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs dapsim's main when the test binary is invoked as
// `<test binary> -test.run=^$ -- dapsim <flags>`, so a test can check the
// command's output and exit status in a child process.
func TestMain(m *testing.M) {
	flag.Parse()
	if args := flag.Args(); len(args) > 0 && args[0] == "dapsim" {
		os.Args = args
		flag.CommandLine = flag.NewFlagSet("dapsim", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dapsim runs the command with args and returns its stderr and exit status.
func dapsim(t *testing.T, args ...string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--", "dapsim"}, args...)...)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return errBuf.String(), cmd.ProcessState.ExitCode()
}

// TestAbortPrintsFlightRecording: a run the watchdog aborts exits 1 and
// prints its diagnostic, then its flight recording, on stderr; so does a
// replicated run when one replica aborts.
func TestAbortPrintsFlightRecording(t *testing.T) {
	wedged := []string{"-quick", "-workload", "mcf", "-policy", "dap", "-instr", "20000", "-watchdog", "1"}
	for _, tc := range []struct {
		name, diag string
		args       []string
	}{
		{"single", "dapsim: sim: stalled", wedged},
		{"replicate", "dapsim: runner: job 0: sim: stalled", append([]string{"-replicate", "2"}, wedged...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stderr, code := dapsim(t, tc.args...)
			if code != 1 {
				t.Fatalf("exit status %d, want 1; stderr:\n%s", code, stderr)
			}
			diag := strings.Index(stderr, tc.diag)
			flight := strings.Index(stderr, "flight recording (")
			if diag < 0 || flight < diag || !strings.Contains(stderr[flight:], "run-aborted") {
				t.Fatalf("stderr lacks %q followed by a flight recording ending in run-aborted:\n%s", tc.diag, stderr)
			}
		})
	}
}

// TestCacheBWNeedsHBMCache: -cachebw picks the HBM stack of the sectored
// or Alloy cache, so with -arch edram it exits 1 naming the flag instead
// of being ignored.
func TestCacheBWNeedsHBMCache(t *testing.T) {
	stderr, code := dapsim(t, "-quick", "-arch", "edram", "-cachebw", "128")
	if code != 1 || !strings.Contains(stderr, "-cachebw") {
		t.Fatalf("exit status %d, stderr %q; want 1 and a message naming -cachebw", code, stderr)
	}
}

// TestReplicateRejectsIgnoredFlags: a replicated run measures seeds
// 0..N-1 with no checkpoint cache, artifact or profile, and a single run
// has no replicas for -j to fan out, no series for -metrics-out without
// -metrics-every, no tracer for -trace-sample without -trace, and no DAP
// decisions for -decisions under a baseline policy. Each such combination
// exits 1 with one line naming the flags, before anything is created.
func TestReplicateRejectsIgnoredFlags(t *testing.T) {
	run := []string{"-quick", "-workload", "mcf", "-instr", "20000", "-warm", "5000"}
	for _, tc := range []struct {
		name  string
		args  []string
		named []string
	}{
		{"seed", []string{"-replicate", "2", "-seed", "9"}, []string{"-seed"}},
		{"ckpt-dir", []string{"-replicate", "2", "-ckpt-dir", "DIR/ckpt"}, []string{"-ckpt-dir"}},
		{"artifacts", []string{"-replicate", "2", "-j", "1", "-ckpt-dir", "DIR/ckpt", "-seed", "9", "-decisions", "DIR/d.csv"},
			[]string{"-ckpt-dir", "-seed", "-decisions"}},
		{"j-alone", []string{"-j", "2"}, []string{"-j"}},
		{"metrics-out-alone", []string{"-metrics-out", "DIR/m.csv"}, []string{"-metrics-out"}},
		{"trace-sample-alone", []string{"-trace-sample", "4"}, []string{"-trace-sample"}},
		{"decisions-batman", []string{"-policy", "batman", "-decisions", "DIR/d.csv"}, []string{"-decisions"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string(nil), run...)
			for _, a := range tc.args {
				args = append(args, strings.ReplaceAll(a, "DIR", dir))
			}
			stderr, code := dapsim(t, args...)
			if code != 1 || strings.Count(stderr, "\n") != 1 {
				t.Fatalf("exit status %d, stderr %q; want 1 and one line", code, stderr)
			}
			for _, f := range tc.named {
				if !strings.Contains(stderr, f) {
					t.Errorf("stderr %q does not name %s", stderr, f)
				}
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
				t.Errorf("the rejected run left %d entries in its directory (%v)", len(entries), err)
			}
		})
	}
}
