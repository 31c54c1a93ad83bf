package telemetry

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

//go:embed dashboard.html
var dashboardHTML []byte

// Version returns the binary's VCS identity ("<short-rev>[+dirty]") from
// the embedded build info, or "dev" when built without VCS stamping. It is
// the `version` field of /healthz and of exported metrics-file headers.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "dev"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// Server is the embedded telemetry HTTP service: Prometheus /metrics, the
// run inventory as JSON, a live SSE window stream per run with an embedded
// dashboard, /healthz, and /debug/pprof.
type Server struct {
	Metrics *Registry
	Runs    *RunRegistry
	// Logger, when non-nil, gets one structured record per request (method,
	// path, status, duration). Scrape and stream endpoints (/metrics, SSE)
	// log at Debug so an Info-level service isn't drowned by its own
	// monitoring; set before Start/Handler.
	Logger *slog.Logger

	mu      sync.Mutex
	httpSrv *http.Server
	started time.Time
	extra   []extraRoute
}

type extraRoute struct {
	pattern string
	h       http.HandlerFunc
}

// Handle registers an additional route on the server's mux (Go 1.22
// method+wildcard patterns, e.g. "POST /jobs"). It lets subsystems such as
// the sweep service mount their API on the same listener; call it before
// Start/Handler.
func (s *Server) Handle(pattern string, h http.HandlerFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.extra = append(s.extra, extraRoute{pattern, h})
}

// NewServer builds a server over the given registries (pass Default and
// Runs for the process-wide ones).
func NewServer(metrics *Registry, runs *RunRegistry) *Server {
	return &Server{Metrics: metrics, Runs: runs, started: time.Now()}
}

// Handler returns the full route mux (usable directly under httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /runs", s.handleRuns)
	mux.HandleFunc("GET /runs/{id}", s.handleRun)
	mux.HandleFunc("GET /runs/{id}/decisions", s.handleDecisions)
	mux.HandleFunc("GET /runs/{id}/stream", s.handleStream)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mu.Lock()
	extra := s.extra
	s.mu.Unlock()
	for _, r := range extra {
		mux.HandleFunc(r.pattern, r.h)
	}
	return s.withRequestObs(mux)
}

// withRequestObs wraps the mux with request observability: a latency
// histogram observation per request plus (when a Logger is set) one
// structured record with method, path, status and duration. The wrapper
// never buffers bodies — the status writer only captures the code and
// passes Flush through, so /metrics scrapes and SSE streams behave exactly
// as they do unwrapped.
func (s *Server) withRequestObs(h http.Handler) http.Handler {
	var hist *Histogram
	if s.Metrics != nil {
		hist = s.Metrics.Histogram("telemetry_http_request_seconds",
			"HTTP request handling duration.", DurationBuckets())
	}
	log := s.Logger
	if hist == nil && log == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		d := time.Since(t0)
		if hist != nil {
			hist.Observe(d.Seconds())
		}
		if log == nil {
			return
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		rec := log.Info
		if r.URL.Path == "/metrics" || strings.HasSuffix(r.URL.Path, "/stream") {
			rec = log.Debug
		}
		rec("http request", "method", r.Method, "path", r.URL.Path,
			"status", status, "duration", d.String())
	})
}

// statusWriter captures the response status code for the request log while
// delegating everything else — including Flush, which SSE streaming needs —
// to the underlying writer.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Start binds addr (":0" picks a free port) and serves in the background,
// returning the bound address. Call Shutdown to stop.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	go srv.Serve(lis) //nolint:errcheck // ErrServerClosed after Shutdown
	return lis.Addr().String(), nil
}

// Shutdown gracefully stops the server (no-op if never started).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(dashboardHTML)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"status":         "ok",
		"version":        Version(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"active_runs":    s.Runs.ActiveCount(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Metrics.WritePrometheus(w) //nolint:errcheck // client gone
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Runs.Snapshots())
}

func (s *Server) runFromPath(w http.ResponseWriter, r *http.Request) *Run {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad run id", http.StatusBadRequest)
		return nil
	}
	run := s.Runs.Get(id)
	if run == nil {
		http.Error(w, "no such run (it may have been evicted)", http.StatusNotFound)
	}
	return run
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	run := s.runFromPath(w, r)
	if run == nil {
		return
	}
	writeJSON(w, run.snapshot(true))
}

// handleDecisions serves the run's retained partitioner decision series:
// the per-window optimality gap, access fractions and credit refills the
// harness published while the run executed (empty when the run was not
// started with decision recording).
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	run := s.runFromPath(w, r)
	if run == nil {
		return
	}
	writeJSON(w, run.Decisions())
}

// sseHeartbeatEvery is the idle-stream keepalive period: a comment line is
// written so proxies and LBs with idle timeouts keep the connection open.
// Package-level so tests can shrink it.
var sseHeartbeatEvery = 15 * time.Second

// handleStream serves the SSE window stream: a `meta` event carrying the
// run snapshot and column names, one `window` event per sampler window
// (ring history replayed first, then live), and a closing `done` event with
// the final snapshot. Idle streams carry periodic heartbeat comments so
// intermediaries do not cut them; slow consumers drop windows rather than
// ever back-pressuring the simulation.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	run := s.runFromPath(w, r)
	if run == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	meta := run.snapshot(false)
	meta.Columns = run.Columns()
	sendEvent(w, "meta", meta)
	fl.Flush()

	history, live, cancel := run.Subscribe()
	defer cancel()
	for _, win := range history {
		sendEvent(w, "window", win)
	}
	fl.Flush()

	ctx := r.Context()
	hb := time.NewTicker(sseHeartbeatEvery)
	defer hb.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-hb.C:
			// SSE comment line: ignored by clients, resets proxy idle timers.
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case win, ok := <-live:
			if !ok {
				sendEvent(w, "done", run.snapshot(false))
				fl.Flush()
				return
			}
			sendEvent(w, "window", win)
			// Drain whatever else is already buffered before flushing, so a
			// fast publisher does not force one flush per window.
			for {
				select {
				case more, ok := <-live:
					if !ok {
						sendEvent(w, "done", run.snapshot(false))
						fl.Flush()
						return
					}
					sendEvent(w, "window", more)
					continue
				default:
				}
				break
			}
			fl.Flush()
		}
	}
}

func sendEvent(w http.ResponseWriter, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone
}
