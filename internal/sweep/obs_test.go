package sweep

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dap/internal/mem"
	"dap/internal/obs"
	"dap/internal/telemetry"
)

// syncBuffer is a goroutine-safe log sink: workers log concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServiceObservabilityEndToEnd drives a sweep with a stalling job and
// a repeated job through a fully instrumented service and asserts the
// whole observability surface at once: the Perfetto trace carries every
// lifecycle event, the latency histograms counted real observations, one
// correlation ID threads through the log records from enqueue to done, and
// the stalled job's flight dump is stored with its failure and served over
// HTTP while clean jobs have none.
func TestServiceObservabilityEndToEnd(t *testing.T) {
	var logs syncBuffer
	tracer := obs.NewJobTracer(0)

	// The executor mirrors harness.SweepExecutorCkpt's observability contract:
	// it logs through the context logger stamped with the context corr, and
	// an aborted run surfaces as an *obs.FlightError carrying the frozen
	// flight ring.
	exec := func(ctx context.Context, spec JobSpec) ([]byte, error) {
		corr := obs.Corr(ctx)
		obs.LoggerFrom(ctx).Info("simulation start", "corr", corr, "mix", spec.Mix)
		if spec.Mix == "stall" {
			fr := obs.NewFlightRecorder(8)
			fr.Addf(mem.Cycle(1000), "pending=42 progress=0")
			dump := fr.Dump("watchdog-stall", "req queued=42")
			dump.Corr = corr
			dump.Error = "watchdog: no forward progress"
			return nil, &obs.FlightError{Dump: dump, Err: fmt.Errorf("watchdog: no forward progress")}
		}
		obs.LoggerFrom(ctx).Info("simulation done", "corr", corr)
		return []byte("result-of-" + spec.String()), nil
	}
	ts, svc := newAPIServer(t, exec, Config{
		Logger: obs.NewLogger(&logs, "debug", "json"), Tracer: tracer,
	})
	sw := submitT(t, svc, SweepSpec{Mixes: []string{"ok-a", "ok-b", "stall"}})
	submitT(t, svc, SweepSpec{Mixes: []string{"ok-a"}}) // served from the store
	svc.Start()
	waitIdle(t, svc)

	// 1. The Chrome trace opens as one JSON document with every lifecycle
	// event: submit, execute and store-put for each job, the second sweep's
	// cache hit, and the stalled job's failure.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	doJSON(t, "GET", ts.URL+"/trace", nil, http.StatusOK, &doc)
	seen := map[string]int{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name]++
	}
	for name, want := range map[string]int{"submit": 4, "execute": 3, "store-put": 3, "cache-hit": 1, "failed": 1} {
		if seen[name] != want {
			t.Errorf("trace has %d %q events, want %d (events: %v)", seen[name], name, want, seen)
		}
	}

	// 2. The latency histograms counted real observations.
	var prom strings.Builder
	if err := telemetry.Default.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sweep_execute_seconds", "store_put_seconds"} {
		m := regexp.MustCompile(name + `_count (\d+)`).FindStringSubmatch(prom.String())
		if m == nil {
			t.Errorf("/metrics missing %s_count", name)
			continue
		}
		if n, _ := strconv.Atoi(m[1]); n == 0 {
			t.Errorf("%s_count is zero", name)
		}
	}

	// 3. One correlation ID threads through the log records of a clean job
	// from enqueue through execution to done, and the repeated job's cache
	// hit and the stalled job's failure carry their own.
	logStr := logs.String()
	for corr, markers := range map[string][]string{
		"s1-j1": {"job enqueued", "simulation start", "simulation done", "job done"},
		"s1-j3": {"job enqueued", "simulation start", "job failed"},
		"s2-j4": {"job enqueued", "job served from store"},
	} {
		for _, marker := range markers {
			found := false
			for _, line := range strings.Split(logStr, "\n") {
				if strings.Contains(line, marker) && strings.Contains(line, `"corr":"`+corr+`"`) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no %q record stamped with corr %s", marker, corr)
			}
		}
	}
	if t.Failed() {
		t.Logf("logs:\n%s", logStr)
	}

	// 4. The stalled job's flight dump is stored with its failure, carries
	// its correlation ID, and is served at /jobs/{id}/flight.
	stall := sw.Jobs[2]
	var dump obs.FlightDump
	doJSON(t, "GET", fmt.Sprintf("%s/jobs/%d/flight", ts.URL, stall.ID), nil, http.StatusOK, &dump)
	if dump.Corr != stall.Corr() || dump.Reason != "watchdog-stall" || len(dump.Entries) == 0 {
		t.Errorf("dump = corr %q reason %q entries %d, want corr %q reason watchdog-stall entries > 0",
			dump.Corr, dump.Reason, len(dump.Entries), stall.Corr())
	}
	snap := snapshotT(t, svc, sw.ID, true)
	if j := snap.Jobs[2]; j.State != "failed" || j.Error != "watchdog: no forward progress" {
		t.Errorf("stalled job = %+v", j)
	}

	// 5. Clean runs have no dump.
	doJSON(t, "GET", fmt.Sprintf("%s/jobs/%d/flight", ts.URL, sw.Jobs[0].ID), nil, http.StatusNotFound, nil)
}
