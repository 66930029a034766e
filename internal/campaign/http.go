package campaign

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"
)

// NewMux builds the campaign service's HTTP API (docs/campaign-service.md
// is the reference):
//
//	POST /v1/campaigns            submit a Matrix; 202 + {id, points}
//	GET  /v1/campaigns            list campaign summaries
//	GET  /v1/campaigns/{id}       status + per-point results
//	GET  /v1/campaigns/{id}/stream  results as JSONL as they land
//	POST /v1/campaigns/{id}/cancel  cancel queued points
//	GET  /healthz                 liveness (always 200 once serving)
//	GET  /readyz                  readiness (503 while draining)
func NewMux(s *Service) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		var m Matrix
		if err := decodeStrict(http.MaxBytesReader(w, r.Body, 16<<20), &m); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		id, points, err := s.Submit(m, time.Now())
		switch {
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "points": len(points)})
	})
	mux.HandleFunc("GET /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"campaigns": s.List()})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/campaigns/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := s.Cancel(id); err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, ErrUnknownCampaign) {
				code = http.StatusNotFound
			}
			writeError(w, code, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "cancelled"})
	})
	mux.HandleFunc("GET /v1/campaigns/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		streamCampaign(s, w, r)
	})
	return mux
}

// streamCampaign writes results as newline-delimited JSON: first the
// snapshot of points already done, then each new result as it lands,
// until the campaign reaches a terminal state or the client goes away.
// The Subscribe snapshot+registration is atomic, so every point appears
// exactly once.
func streamCampaign(s *Service, w http.ResponseWriter, r *http.Request) {
	past, live, done, cancel, err := s.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer cancel()
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	seen := make(map[int]bool, len(past))
	emit := func(res *Result) bool {
		if seen[res.Point] {
			return true
		}
		seen[res.Point] = true
		if err := enc.Encode(res); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, res := range past {
		if !emit(res) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case res := <-live:
			if !emit(res) {
				return
			}
		case <-done:
			// Drain results that raced the terminal transition, then stop.
			for {
				select {
				case res := <-live:
					if !emit(res) {
						return
					}
				default:
					return
				}
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
