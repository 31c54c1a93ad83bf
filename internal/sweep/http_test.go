package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dap/internal/telemetry"
)

// newAPIServer stands up the full HTTP surface over a real service.
func newAPIServer(t *testing.T, exec Executor, cfg Config) (*httptest.Server, *Service) {
	t.Helper()
	cfg.Workers = 1
	svc := openSvc(t, t.TempDir(), exec, cfg)
	reg := telemetry.NewRegistry()
	srv := telemetry.NewServer(reg, telemetry.NewRunRegistry(reg))
	svc.Attach(srv)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Close(ctx) //nolint:errcheck // test teardown
	})
	return ts, svc
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(b)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test helper
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d (%s); want %d", method, url, resp.StatusCode, strings.TrimSpace(buf.String()), wantStatus)
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s response %q: %v", url, buf.String(), err)
		}
	}
}

// pollSweep polls GET /jobs/{id} until done reports true.
func pollSweep(t *testing.T, base string, id int64, done func(SweepSnapshot) bool) SweepSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var snap SweepSnapshot
		doJSON(t, "GET", fmt.Sprintf("%s/jobs/%d", base, id), nil, http.StatusOK, &snap)
		if done(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %d never settled: %+v", id, snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitPollResultsLifecycle(t *testing.T) {
	ts, svc := newAPIServer(t, echoExec, Config{})
	svc.Start()

	var created struct {
		ID   int64 `json:"id"`
		Jobs int   `json:"jobs"`
	}
	doJSON(t, "POST", ts.URL+"/jobs", SweepSpec{
		Mixes: []string{"mcf", "lbm"}, Policies: []string{"baseline", "dap"},
	}, http.StatusCreated, &created)
	if created.ID != 1 || created.Jobs != 4 {
		t.Fatalf("created = %+v", created)
	}

	snap := pollSweep(t, ts.URL, created.ID, func(s SweepSnapshot) bool { return s.Counts["done"] == 4 })
	if len(snap.Jobs) != 4 {
		t.Fatalf("detail view has %d jobs", len(snap.Jobs))
	}
	for _, j := range snap.Jobs {
		if j.State != "done" || j.Key == "" || j.Corr != fmt.Sprintf("s1-j%d", j.ID) {
			t.Fatalf("job = %+v", j)
		}
	}

	// Results endpoint returns each stored payload.
	var res sweepResults
	doJSON(t, "GET", fmt.Sprintf("%s/jobs/%d/results", ts.URL, created.ID), nil, http.StatusOK, &res)
	if res.Done != 4 || res.Total != 4 || len(res.Results) != 4 {
		t.Fatalf("results = done %d total %d n %d", res.Done, res.Total, len(res.Results))
	}
	var first string
	if err := json.Unmarshal(res.Results[0].Result, &first); err != nil {
		t.Fatalf("payload not passed through: %v", err)
	}
	if !strings.HasPrefix(first, "result-of-mcf|") {
		t.Fatalf("payload = %q", first)
	}

	// Sweep list includes the summary.
	var list []SweepSnapshot
	doJSON(t, "GET", ts.URL+"/jobs", nil, http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != 1 || list[0].Counts["done"] != 4 {
		t.Fatalf("list = %+v", list)
	}
}

func TestSubmitValidationAndDecodeErrors(t *testing.T) {
	ts, _ := newAPIServer(t, echoExec, Config{Validate: func(js JobSpec) error {
		if js.Mix == "bogus" {
			return fmt.Errorf("unknown mix %q", js.Mix)
		}
		return nil
	}})

	// Unknown mix -> 400 with the validator's message.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"mixes":["bogus"]}`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck // test helper
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "unknown mix") {
		t.Fatalf("invalid submit = %d %q", resp.StatusCode, buf.String())
	}

	// Malformed JSON, unknown fields and an empty sweep -> 400.
	for _, body := range []string{`{not json`, `{"mixxes":["mcf"]}`, `{}`} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %q = %d; want 400", body, resp.StatusCode)
		}
	}
}

func TestCancelSweepOverHTTP(t *testing.T) {
	// Not started: jobs stay queued so cancellation hits all of them.
	ts, _ := newAPIServer(t, echoExec, Config{})
	var created struct {
		ID int64 `json:"id"`
	}
	doJSON(t, "POST", ts.URL+"/jobs", SweepSpec{Mixes: []string{"a", "b"}}, http.StatusCreated, &created)

	var snap SweepSnapshot
	doJSON(t, "DELETE", fmt.Sprintf("%s/jobs/%d", ts.URL, created.ID), nil, http.StatusOK, &snap)
	if !snap.Cancelled || snap.Counts["cancelled"] != 2 {
		t.Fatalf("cancel snapshot = %+v", snap)
	}
	// Unknown sweep -> 404; bad ID -> 400, on every per-sweep route.
	doJSON(t, "DELETE", ts.URL+"/jobs/99", nil, http.StatusNotFound, nil)
	doJSON(t, "DELETE", ts.URL+"/jobs/xyz", nil, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/jobs/99", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/jobs/xyz", nil, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/jobs/99/results", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/jobs/99/flight", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/jobs/xyz/flight", nil, http.StatusBadRequest, nil)
	// No tracer configured -> /trace says so instead of serving nothing.
	doJSON(t, "GET", ts.URL+"/trace", nil, http.StatusNotFound, nil)
}

func TestRunningJobOverHTTP(t *testing.T) {
	// An executing job is visible over the API as running, then as done.
	started, release := make(chan struct{}), make(chan struct{})
	ts, svc := newAPIServer(t, blockingExec(started, release).exec, Config{})
	doJSON(t, "POST", ts.URL+"/jobs", SweepSpec{Mixes: []string{"a", "b"}}, http.StatusCreated, nil)
	svc.Start()
	<-started

	var snap SweepSnapshot
	doJSON(t, "GET", ts.URL+"/jobs/1", nil, http.StatusOK, &snap)
	if snap.Counts["running"] != 1 || snap.Jobs[0].State != "running" || snap.Jobs[1].State != "queued" {
		t.Fatalf("in-flight sweep = %+v", snap)
	}
	close(release)
	pollSweep(t, ts.URL, 1, func(s SweepSnapshot) bool { return s.Counts["done"] == 2 })
}

func TestFailedJobOverHTTP(t *testing.T) {
	exec := func(context.Context, JobSpec) ([]byte, error) {
		return nil, fmt.Errorf("doomed")
	}
	ts, svc := newAPIServer(t, exec, Config{})
	doJSON(t, "POST", ts.URL+"/jobs", SweepSpec{Mixes: []string{"a"}}, http.StatusCreated, nil)
	svc.Start()

	snap := pollSweep(t, ts.URL, 1, func(s SweepSnapshot) bool { return s.Counts["failed"] == 1 })
	if j := snap.Jobs[0]; j.State != "failed" || j.Error != "doomed" {
		t.Fatalf("failed job = %+v", j)
	}
	// A plain error carries no flight recording, and no result is served.
	doJSON(t, "GET", ts.URL+"/jobs/1/flight", nil, http.StatusNotFound, nil)
	var res sweepResults
	doJSON(t, "GET", ts.URL+"/jobs/1/results", nil, http.StatusOK, &res)
	if res.Done != 0 || res.Total != 1 || len(res.Results) != 0 {
		t.Fatalf("results of a failed sweep = %+v", res)
	}
}

func TestTelemetryRoutesStillServe(t *testing.T) {
	// Mounting the API must not displace the telemetry surface.
	ts, _ := newAPIServer(t, echoExec, Config{})
	for _, path := range []string{"/healthz", "/metrics", "/runs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
}
