package campaignd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/faultinject"
)

// Server exposes a Manager over HTTP/JSON:
//
//	POST /v1/campaigns           submit a Spec               → 201 JobStatus
//	GET  /v1/campaigns           list jobs                   → {"jobs": [JobStatus]}
//	GET  /v1/campaigns/{id}      job detail (Result if done) → JobStatus
//	POST /v1/campaigns/{id}/cancel                           → JobStatus
//	GET  /v1/campaigns/{id}/stream   server-sent events, one Event per
//	                                 completed shard, terminal event last
//	GET  /healthz                liveness                    → "ok"
//	GET  /metrics                Prometheus text exposition
//
// Errors are {"error": "..."} with a 4xx/5xx status.
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer wraps a Manager in the HTTP API.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGet)
	s.mux.HandleFunc("POST /v1/campaigns/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler. The "http.accept" injection point
// models front-door failures: an injected error answers 503 before the
// mux dispatches (clients with retry backoff ride through).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.m.counters.httpRequests.Add(1)
	if err := faultinject.Fire("http.accept"); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// handleHealthz reports liveness plus the degradation ladder: "ok"
// (200), "draining" (503, shutdown in progress — stop routing here),
// or "degraded" (503, checkpoint durability lost; the daemon still
// serves and jobs still complete, but a crash would re-run the lost
// shards).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	h := s.m.Health()
	switch {
	case h.Draining:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case h.Degraded:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "degraded")
		fmt.Fprintf(w, "checkpoint_errors %d\n", h.CheckpointErrors)
		fmt.Fprintf(w, "lost_durability_shards %d\n", h.LostDurabilityShards)
	default:
		fmt.Fprintln(w, "ok")
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleSubmit accepts a campaign Spec. Malformed JSON, unknown fields,
// and invalid specs are all 400s: the daemon never creates state for a
// request it cannot execute.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.m.Submit(spec)
	if err != nil {
		var internal *InternalError
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.As(err, &internal):
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// decodeSpec reads one submitted Spec, refusing fields the wire form
// does not define and any data after the spec object. Validation is left
// to Manager.Submit.
func decodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("campaignd: bad spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("campaignd: bad spec: data after the spec object")
	}
	return spec, nil
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]JobStatus{"jobs": s.m.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.m.Get(id, true)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaignd: no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.m.Get(id, false); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaignd: no job %q", id))
		return
	}
	st, err := s.m.Cancel(id)
	if err != nil {
		// The job exists but is already terminal.
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStream serves server-sent events: an immediate snapshot, one
// event per completed shard while the job runs, and a final event
// carrying the terminal state. Event payloads are Event JSON in the SSE
// data field with event type "progress" or "done".
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, release, err := s.m.Subscribe(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer release()

	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("campaignd: response writer cannot stream"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-events:
			if !open {
				return
			}
			kind := "progress"
			if ev.State.terminal() {
				kind = "done"
			}
			blob, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", kind, blob)
			flusher.Flush()
		}
	}
}
