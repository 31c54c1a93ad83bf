package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestSeriesArithmetic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Add(3)
	c.Inc()
	if v := c.Value(); v != 4 {
		t.Fatalf("counter = %v, want 4", v)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7.5)
	if v := g.Value(); v != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", v)
	}
	// same (name, labels) must return the same series
	if r.Counter("jobs_total", "jobs") != c {
		t.Fatal("counter handle not shared")
	}
	if r.Counter("jobs_total", "jobs", Label{"w", "1"}) == c {
		t.Fatal("labeled series must be distinct")
	}
	var nilSeries *Series
	nilSeries.Set(1) // nil-safe no-ops
	nilSeries.Add(1)
	if nilSeries.Value() != 0 {
		t.Fatal("nil series value")
	}
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"dap.credit.fwb": "dap_credit_fwb",
		"mm.c0.util":     "mm_c0_util",
		"core0.ipc":      "core0_ipc",
		"ms.hit_ratio":   "ms_hit_ratio",
		"9lives":         "_lives",
		"a b/c":          "a_b_c",
	} {
		if got := Sanitize(in); got != want {
			t.Errorf("Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPrometheusGolden locks the exposition format: stable family ordering,
// HELP/TYPE lines, sorted label signatures, integer rendering.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("runner_jobs_done", "Jobs completed by the worker pool.").Add(12)
	r.Counter("runner_jobs_total", "Jobs submitted to the worker pool.").Add(14)
	r.Gauge("runner_workers_busy", "Workers currently executing a job.").Set(2)
	for i := 0; i < 3; i++ {
		r.Gauge("dap_credit_fwb", "FWB credit level.",
			Label{"run", fmt.Sprint(i + 1)}, Label{"mix", "mcf"}).Set(float64(10 * i))
	}
	r.Gauge("ratio", "A fractional gauge.").Set(0.25)
	r.RegisterCollector(func(emit Emit) {
		emit("sim_run_progress_cycles", "Simulated cycles completed by the run.",
			GaugeKind, []Label{{"run", "1"}, {"mix", "mcf"}}, 123456)
	})

	var got bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	want, err := os.ReadFile(golden)
	if err != nil || !bytes.Equal(got.Bytes(), want) {
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("updated %s", golden)
			return
		}
		t.Fatalf("exposition differs from %s (set UPDATE_GOLDEN=1 to refresh)\n--- got ---\n%s\n--- want ---\n%s",
			golden, got.Bytes(), want)
	}
}

// TestRegistryConcurrentScrape is the -race workhorse: 8 publishers
// hammering counters/gauges (mixing pre-acquired handles and fresh
// lookups) while the exposition is rendered in a tight loop.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()

	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraperDone := make(chan struct{})

	go func() { // scraper
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			done := r.Counter("runner_jobs_done", "done")
			busy := r.Gauge("runner_workers_busy", "busy")
			for i := 0; i < iters; i++ {
				busy.Add(1)
				done.Inc()
				r.Gauge("per_worker_gauge", "g", Label{"w", fmt.Sprint(w)}).Set(float64(i))
				busy.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	if got := r.Counter("runner_jobs_done", "done").Value(); got != workers*iters {
		t.Fatalf("runner_jobs_done = %v, want %d", got, workers*iters)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("runner_jobs_done %d\n", workers*iters),
		"runner_workers_busy 0\n",
		fmt.Sprintf("per_worker_gauge{w=\"%d\"} %d\n", workers-1, iters-1),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("x", "")
}
