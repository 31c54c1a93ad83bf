package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"dap/internal/telemetry"
)

// Attach mounts the sweep API on the telemetry server's mux. Call before
// the server starts.
//
//	POST   /jobs               submit a sweep spec, returns {id, jobs}
//	GET    /jobs               list sweep summaries
//	GET    /jobs/{id}          one sweep with per-job states (and errors)
//	DELETE /jobs/{id}          cancel a sweep's jobs that have not started
//	GET    /jobs/{id}/results  completed jobs' stored result payloads
//	GET    /jobs/{id}/flight   a failed job's stored flight-recorder dump
//	GET    /trace              the job-lifecycle Chrome trace (open in Perfetto)
func (s *Service) Attach(srv *telemetry.Server) {
	srv.Handle("POST /jobs", s.handleSubmit)
	srv.Handle("GET /jobs", s.handleList)
	srv.Handle("GET /jobs/{id}", s.handleSweep)
	srv.Handle("DELETE /jobs/{id}", s.handleCancel)
	srv.Handle("GET /jobs/{id}/results", s.handleResults)
	srv.Handle("GET /jobs/{id}/flight", s.handleFlight)
	srv.Handle("GET /trace", s.handleTrace)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		http.Error(w, fmt.Sprintf("bad sweep spec: %v", err), http.StatusBadRequest)
		return
	}
	sw, err := s.Submit(spec)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errBadSpec) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]any{"id": sw.ID, "jobs": len(sw.Jobs)})
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Sweeps())
}

func pathID(w http.ResponseWriter, r *http.Request, what string) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad "+what+" id", http.StatusBadRequest)
		return 0, false
	}
	return id, true
}

// pathSweep resolves the {id} of a per-sweep route, answering 400 or 404
// itself when it names no sweep.
func (s *Service) pathSweep(w http.ResponseWriter, r *http.Request) (*Sweep, bool) {
	id, ok := pathID(w, r, "sweep")
	if !ok {
		return nil, false
	}
	sw := s.find(id)
	if sw == nil {
		http.Error(w, "no such sweep", http.StatusNotFound)
	}
	return sw, sw != nil
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	if sw, ok := s.pathSweep(w, r); ok {
		writeJSON(w, s.snapshot(sw, true))
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.pathSweep(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(sw.ID); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, s.snapshot(sw, false))
}

// sweepResults is the /jobs/{id}/results response: each completed job's
// stored payload, verbatim.
type sweepResults struct {
	ID      int64        `json:"id"`
	Done    int          `json:"done"`
	Total   int          `json:"total"`
	Results []jobPayload `json:"results"`
}

type jobPayload struct {
	Job    int64           `json:"job"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.pathSweep(w, r)
	if !ok {
		return
	}
	out := sweepResults{ID: sw.ID, Total: len(sw.Jobs), Results: []jobPayload{}}
	for _, j := range sw.Jobs {
		payload, ok := s.results.Get(j.Key)
		if !ok {
			continue
		}
		if !json.Valid(payload) {
			quoted, _ := json.Marshal(string(payload))
			payload = quoted
		}
		out.Results = append(out.Results, jobPayload{Job: j.ID, Key: j.Key, Result: payload})
		out.Done++
	}
	writeJSON(w, out)
}

// handleFlight serves the flight-recorder dump stored with a failed job.
// Here {id} is a job ID (dumps are per job, not per sweep); only jobs whose
// run stalled or aborted have one.
func (s *Service) handleFlight(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r, "job")
	if !ok {
		return
	}
	j, ok := s.job(id)
	f, stored := s.failure(j.Key)
	if !ok || !stored || f.Flight == nil {
		http.Error(w, fmt.Sprintf("no flight recording for job %d", id), http.StatusNotFound)
		return
	}
	writeJSON(w, f.Flight)
}

// handleTrace streams the job-lifecycle tracer's Chrome trace JSON — load
// it into Perfetto (ui.perfetto.dev) to see every job's submit, execute and
// store-put events, with cache hits and failures marked.
func (s *Service) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Tracer == nil {
		http.Error(w, "job tracing disabled (no tracer configured)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.cfg.Tracer.WriteChromeTrace(w) //nolint:errcheck // client gone
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone
}
