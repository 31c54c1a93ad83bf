package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dap/internal/telemetry"
)

// TestObservabilityIsBitIdenticalWithServe extends the strict-observer bar
// to the telemetry service: a run that registers with the run registry,
// publishes every sampler window through the lock-free path AND is scraped
// over HTTP while simulating must produce a stats.Run bit-identical to an
// unserved, uninstrumented run. This is the acceptance gate for -serve —
// live monitoring can never perturb results.
func TestObservabilityIsBitIdenticalWithServe(t *testing.T) {
	mix := traceableMix(4)
	base := obsTestConfig()
	base.CPU.Cores = 4

	inst := base
	inst.Observe.MetricsEvery = 5_000

	plain := RunMix(base, mix)

	// Serve the process-wide registries — the same ones System.Run
	// publishes into — and scrape them continuously while simulating.
	srv := httptest.NewServer(telemetry.NewServer(telemetry.Default, telemetry.Runs).Handler())
	defer srv.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/runs", "/healthz"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Errorf("scrape %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("scrape %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}
	}()

	served := RunMix(inst, mix)
	close(stop)
	wg.Wait()

	if plain.Abort != nil || served.Abort != nil {
		t.Fatalf("aborted runs: plain=%v served=%v", plain.Abort, served.Abort)
	}
	if !reflect.DeepEqual(plain.Run, served.Run) {
		t.Errorf("stats.Run differs between unserved and served runs")
		if plain.Cycles != served.Cycles {
			t.Errorf("cycles: plain=%d served=%d", plain.Cycles, served.Cycles)
		}
	}
	if served.Metrics == nil || served.Metrics.Samples() == 0 {
		t.Fatal("served run sampled no windows")
	}

	// The scrape surface must have the run's series: DAP credits and the
	// run-lifecycle gauges the issue names.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"dap_credit_fwb{", "sim_run_progress_cycles{", "sim_runs_finished_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeSSEStreamDeliversWindows runs a quick instrumented simulation
// and consumes its SSE stream end to end over real HTTP: the stream must
// open with a meta event carrying the sampler's column names and deliver
// at least two sampler windows before the done event.
func TestServeSSEStreamDeliversWindows(t *testing.T) {
	cfg := obsTestConfig()
	cfg.CPU.Cores = 2
	cfg.Observe.MetricsEvery = 5_000
	mix := traceableMix(2)

	// Stream the run live: subscribe concurrently with the simulation so
	// windows arrive as the sampler closes them, then drain through done.
	srv := httptest.NewServer(telemetry.NewServer(telemetry.Default, telemetry.Runs).Handler())
	defer srv.Close()

	r := RunMix(cfg, mix)
	if r.Abort != nil {
		t.Fatalf("aborted: %v", r.Abort)
	}

	// Find the run just registered (newest tracked run).
	snaps := telemetry.Runs.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no runs tracked")
	}
	id := snaps[0].ID

	resp, err := http.Get(fmt.Sprintf("%s/runs/%d/stream", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content-type %q", ct)
	}

	var meta, windows, done int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == "event: meta":
			meta++
		case line == "event: window":
			windows++
		case line == "event: done":
			done++
		case strings.HasPrefix(line, "data: ") && meta == 1 && windows == 0:
			if !strings.Contains(line, "dap.credit.fwb") {
				t.Errorf("meta event missing sampler columns: %s", line)
			}
			meta++ // only inspect the first data line after meta
		}
		if done > 0 {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if meta == 0 {
		t.Error("no meta event")
	}
	if windows < 2 {
		t.Errorf("stream delivered %d windows, want >= 2", windows)
	}
	if done == 0 {
		t.Error("no done event")
	}
}

// TestServeDecisionsEndpoint runs a decision-recorded simulation and reads
// its per-window series back over real HTTP: /runs/{id}/decisions must carry
// the source names and a non-empty gap series matching the run's recorder.
func TestServeDecisionsEndpoint(t *testing.T) {
	cfg := obsTestConfig()
	cfg.CPU.Cores = 2
	cfg.Observe.Decisions = true
	mix := traceableMix(2)

	srv := httptest.NewServer(telemetry.NewServer(telemetry.Default, telemetry.Runs).Handler())
	defer srv.Close()

	r := RunMix(cfg, mix)
	if r.Abort != nil {
		t.Fatalf("aborted: %v", r.Abort)
	}
	recs := r.Decisions.Records()
	if len(recs) == 0 {
		t.Fatal("run recorded no decisions")
	}

	snaps := telemetry.Runs.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no runs tracked")
	}
	id := snaps[0].ID

	resp, err := http.Get(fmt.Sprintf("%s/runs/%d/decisions", srv.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var snap telemetry.DecisionsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Total != uint64(len(recs)) {
		t.Errorf("published %d decisions, recorder holds %d", snap.Total, len(recs))
	}
	if len(snap.Series) == 0 {
		t.Fatal("empty decision series")
	}
	if !reflect.DeepEqual(snap.Sources, r.Decisions.SourceNames()) {
		t.Errorf("sources = %v, want %v", snap.Sources, r.Decisions.SourceNames())
	}
	last := snap.Series[len(snap.Series)-1]
	want := recs[len(recs)-1]
	if last.Window != want.Window || last.Gap != want.Gap {
		t.Errorf("last wire record (w=%d gap=%v) != recorder (w=%d gap=%v)",
			last.Window, last.Gap, want.Window, want.Gap)
	}
}
