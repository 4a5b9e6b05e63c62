package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
)

// Server exposes a Daemon over HTTP/JSON.
//
// API surface (all payloads JSON):
//
//	POST /v1/experiments          submit an ExperimentSpec
//	                              202 accepted {Status}; 200 dedup-done
//	                              {Status}; 400 invalid spec or unknown
//	                              field; 413 body over 1 MiB; 429 queue
//	                              saturated (Retry-After); 503 draining
//	GET  /v1/experiments/{id}         poll status {Status}
//	GET  /v1/experiments/{id}/result  fetch the stored result payload
//	GET  /v1/experiments/{id}/stream  stream status snapshots, one JSON
//	                                  line per state change, until the
//	                                  experiment is terminal
//	GET  /v1/stats                daemon accounting {Stats}
//	GET  /v1/healthz              liveness probe
//
// Clients identify themselves with the X-Rmscale-Client header (falling
// back to the remote address); the identity feeds per-client fairness
// and the request log, never the experiment ID.
type Server struct {
	d *Daemon
}

// NewServer wraps the daemon. Request logging and timestamps reuse the
// daemon's Log writer and Clock.
func NewServer(d *Daemon) *Server { return &Server{d: d} }

// retryAfterSec is the backoff hint sent with 429 and 503 responses.
const retryAfterSec = 1

// maxSpecBytes bounds a submission body.
const maxSpecBytes = 1 << 20

// Handler returns the service's HTTP handler with request logging
// wired around every route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	mux.HandleFunc("GET /v1/experiments/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/experiments/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/experiments/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Always 200 — a degraded daemon is alive; the body says what
		// it is operating without (breaker shedding, memory-only store,
		// lost journal durability).
		writeJSON(w, http.StatusOK, s.d.Health())
	})
	return s.logRequests(mux)
}

// clientID extracts the caller's identity for fairness accounting.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Rmscale-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// decodeSpec reads exactly one ExperimentSpec object from the body. A
// misspelt field is an error, not a silently defaulted one, and so is
// anything after the object.
func decodeSpec(w http.ResponseWriter, r *http.Request) (ExperimentSpec, error) {
	var spec ExperimentSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("unexpected data after the spec object")
		}
		return spec, err
	}
	return spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(w, r)
	if err != nil {
		// tooBig lives in the error branch: errors.As moves it to the
		// heap, which a spec that decodes cleanly should not pay for.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("spec body exceeds the %d-byte limit", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding spec: %v", err)})
		return
	}
	st, err := s.d.Submit(spec, clientID(r))
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSec))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrShedding):
		w.Header().Set("Retry-After", fmt.Sprint(s.d.retryAfterHint()))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSec))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case st.State == StateDone:
		writeJSON(w, http.StatusOK, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.d.Status(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown experiment " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if b, ok := s.d.Result(id); ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
		return
	}
	st, ok := s.d.Status(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown experiment " + id})
		return
	}
	// Known but unfinished (or failed): tell the client where it is.
	writeJSON(w, http.StatusConflict, st)
}

// handleStream writes the experiment's status as a JSON line now and
// after every state change until the state is terminal. The wait is
// condition-variable driven — no polling interval — so transitions
// stream with no added latency; it is bounded by the request context,
// so a client hanging up mid-stream releases the handler goroutine
// immediately instead of parking it until the next state change.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.d.Status(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown experiment " + id})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		if err := enc.Encode(st); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.State.Terminal() {
			return
		}
		next, ok := s.d.AwaitCtx(r.Context(), id, st.State)
		if !ok || next.State == st.State {
			return // cancelled, unknown, or daemon closed with no further transitions
		}
		st = next
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.d.Stats())
}

// statusRecorder captures the response code and size for the request
// log.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// Flush forwards streaming flushes through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logRequests emits one structured JSON line per request through the
// daemon's event log. Without a log it returns next itself, so an
// unlogged daemon pays nothing per request.
func (s *Server) logRequests(next http.Handler) http.Handler {
	if s.d.cfg.Log == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.d.clock.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		s.d.logEvent("http", map[string]any{
			"method": r.Method,
			"path":   r.URL.Path,
			"status": rec.code,
			"bytes":  rec.bytes,
			"dur_ms": float64(s.d.clock.Now().Sub(start).Microseconds()) / 1000,
			"client": clientID(r),
		})
	})
}
