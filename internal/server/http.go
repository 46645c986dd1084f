package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"threadcluster/internal/errs"
	"threadcluster/internal/metrics"
)

// ErrorBody is the structured error every non-2xx response carries.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail names the failure class (stable code strings clients can
// switch on; the client package maps them back onto errs sentinels) and
// carries the human-readable cause.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// errorClasses maps errs sentinels onto HTTP statuses and wire codes, in
// match order. Everything unmatched is a 500 "internal".
var errorClasses = []struct {
	sentinel error
	status   int
	code     string
}{
	{errs.ErrBadConfig, http.StatusBadRequest, "bad_config"},
	{errs.ErrJobNotFound, http.StatusNotFound, "job_not_found"},
	{errs.ErrJobExists, http.StatusConflict, "job_exists"},
	{errs.ErrJobFinal, http.StatusConflict, "job_final"},
	{errs.ErrJobNotDone, http.StatusConflict, "job_not_done"},
	{errs.ErrOverloaded, http.StatusTooManyRequests, "overloaded"},
	{errs.ErrUnavailable, http.StatusServiceUnavailable, "unavailable"},
	{errs.ErrAlreadyInstalled, http.StatusConflict, "conflict"},
}

// classify maps an error onto (status, wire code).
func classify(err error) (int, string) {
	for _, c := range errorClasses {
		if errors.Is(err, c.sentinel) {
			return c.status, c.code
		}
	}
	return http.StatusInternalServerError, "internal"
}

// SentinelForCode inverts classify: the errs sentinel a wire code
// stands for, nil for "internal" and codes this build does not know.
// The client rehydrates errors through it, so the catalogue above is
// the only copy.
func SentinelForCode(code string) error {
	for _, c := range errorClasses {
		if c.code == code {
			return c.sentinel
		}
	}
	return nil
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs             submit a JobSpec, 202 + JobStatus
//	GET    /v1/jobs             list jobs in admission order
//	GET    /v1/jobs/{id}        one job's status
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events NDJSON progress stream (replays from start)
//	GET    /v1/jobs/{id}/result canonical result payload (byte-stable)
//	GET    /v1/worker           worker health/capacity (fleet coordinator probe)
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             process liveness
//	GET    /readyz              admission readiness (503 while draining)
//
// Every route is wrapped in request metrics (count by route and status,
// latency histogram) timed against the injected Clock.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	route("POST /v1/jobs", s.handleSubmit)
	route("GET /v1/jobs", s.handleList)
	route("GET /v1/jobs/{id}", s.handleStatus)
	route("DELETE /v1/jobs/{id}", s.handleCancel)
	route("GET /v1/jobs/{id}/events", s.handleEvents)
	route("GET /v1/jobs/{id}/result", s.handleResult)
	route("GET /v1/worker", s.handleWorkerHealth)
	route("GET /metrics", s.handleMetrics)
	route("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	route("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			s.writeError(w, fmt.Errorf("server: %w: draining", errs.ErrUnavailable))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// statusRecorder captures the response code for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so NDJSON streaming works
// through the instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// latencyBoundsMs buckets request latency; NDJSON streams can sit open
// for the whole job, hence the minutes-scale tail.
var latencyBoundsMs = []uint64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 15_000, 60_000}

// instrument wraps a route with request counting and latency timing.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.Handler {
	labels := metrics.Labels{"route": pattern}
	hist := s.reg.Histogram("server_http_request_ms", labels, latencyBoundsMs)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.clock.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		hist.Observe(uint64(s.clock.Now().Sub(start).Milliseconds()))
		s.reg.Counter("server_http_requests_total",
			metrics.Labels{"route": pattern, "code": strconv.Itoa(rec.code)}).Inc()
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	body := ErrorBody{Error: ErrorDetail{Code: code, Message: err.Error()}}
	var re *RetryableError
	switch {
	case errors.As(err, &re):
		body.Error.RetryAfterSeconds = re.RetryAfterSeconds
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		body.Error.RetryAfterSeconds = s.retryAfterSeconds()
	}
	if body.Error.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(body.Error.RetryAfterSeconds))
	}
	s.writeJSON(w, status, body)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.writeError(w, fmt.Errorf("server: %w: decoding job spec: %v", errs.ErrBadConfig, err))
		return
	}
	st, err := s.Submit(r.Context(), spec)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	data, err := s.Result(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A declared length lets a client read the payload into one buffer of
	// its size; without it the body goes out chunked.
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// handleEvents streams the job's progress as NDJSON: one JSON event per
// line, flushed per event, replaying retained history first. The stream
// ends at the job's terminal event (or the server's shutdown event).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		s.writeError(w, fmt.Errorf("server: %w: %q", errs.ErrJobNotFound, id))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	_ = s.Subscribe(r.Context(), id, func(ev Event) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

// handleWorkerHealth serves the fleet coordinator's capacity probe.
// Always 200: a draining worker reports draining=true rather than
// erroring, so the coordinator can tell "dying" from "dead".
func (s *Server) handleWorkerHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.WorkerHealth())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Sim series live in per-run snapshots, not the server registry;
	// append the cumulative merge so one scrape carries both. Families
	// never collide: server series are server_*/..., sim series are
	// sim_*/pmu_*/cache_*/sched_*.
	_ = s.reg.WritePrometheusWith(w, s.SimTotals())
}
