// Package httpapi mounts the versioned HTTP surface of the batch-solve
// service. /api/v2 is the wire protocol of the public client package —
// its request and response bodies ARE the client package's exported types,
// so the protocol has exactly one definition.
//
// The v2 surface:
//
//	POST   /api/v2/jobs             submit one job (idempotency_key aware)
//	POST   /api/v2/batch            submit many jobs in one request
//	GET    /api/v2/jobs             list jobs, paginated (?cursor=&limit=)
//	GET    /api/v2/jobs/{id}        one job's status
//	DELETE /api/v2/jobs/{id}        cancel a job
//	GET    /api/v2/jobs/{id}/result the finished job's result
//	GET    /api/v2/jobs/{id}/events progress stream (NDJSON, or SSE when
//	                                Accept: text/event-stream)
//	GET    /api/v2/metrics          service metrics
//	GET    /metrics                 the same metrics, Prometheus text format
//	GET    /healthz                 liveness probe
//
// POST /api/v2/jobs also accepts an explicit matrix as a binary frame
// (Content-Type frame.ContentType, see client.DecodeFrame): the spec's
// JSON header plus the raw float64 values, which is how client.HTTP sends
// every Matrix spec. JSON bodies stay accepted there; /api/v2/batch is
// JSON only. A JSON body must hold exactly one value.
//
// Errors are structured bodies — client.Error's JSON shape
// ({code, message, field}) — with conventional status codes. Event streams
// replay the job's history, then follow live events, and end right after
// the terminal event; a disconnecting consumer tears its subscription down
// immediately.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"

	"repro/client"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/service"
)

// maxRequestBody bounds submit payloads: an explicit 4096² matrix takes
// 128 MiB as a frame and stays under this as JSON text too.
const maxRequestBody = 512 << 20

// NewHandler returns the service's full HTTP surface: /api/v2, /metrics
// and /healthz.
func NewHandler(s *service.Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := decodeSpec(w, r)
		if err != nil {
			writeError(w, err)
			return
		}
		st, err := submit(s, spec)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("POST /api/v2/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Jobs []client.Spec `json:"jobs"`
		}
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
		if len(req.Jobs) == 0 {
			writeError(w, &client.Error{Code: client.CodeBadRequest, Field: "jobs", Message: "batch has no jobs"})
			return
		}
		out := make([]client.Status, 0, len(req.Jobs))
		for i, spec := range req.Jobs {
			st, err := submit(s, spec)
			if err != nil {
				// Fail fast, naming the offending entry; jobs already
				// accepted keep running (the client can list or resubmit
				// idempotently).
				var ce *client.Error
				if errors.As(err, &ce) && ce.Field != "" {
					ce.Field = fmt.Sprintf("jobs[%d].%s", i, ce.Field)
				} else if errors.As(err, &ce) {
					ce.Field = fmt.Sprintf("jobs[%d]", i)
				}
				writeError(w, err)
				return
			}
			out = append(out, st)
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"jobs": out})
	})
	mux.HandleFunc("GET /api/v2/jobs", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, &client.Error{Code: client.CodeBadRequest, Field: "limit", Message: "malformed limit " + strconv.Quote(v)})
				return
			}
			limit = n
		}
		jobs, next, err := s.JobsPage(r.URL.Query().Get("cursor"), limit)
		if err != nil {
			writeError(w, client.FromServiceError(err))
			return
		}
		page := client.JobPage{Jobs: make([]client.Status, len(jobs)), NextCursor: next}
		for i, j := range jobs {
			page.Jobs[i] = client.FromServiceStatus(j.Status())
		}
		writeJSON(w, http.StatusOK, page)
	})
	mux.HandleFunc("GET /api/v2/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, notFound(r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, client.FromServiceStatus(j.Status()))
	})
	mux.HandleFunc("DELETE /api/v2/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, notFound(r.PathValue("id")))
			return
		}
		j.Cancel()
		writeJSON(w, http.StatusOK, client.FromServiceStatus(j.Status()))
	})
	mux.HandleFunc("GET /api/v2/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, notFound(r.PathValue("id")))
			return
		}
		switch j.State() {
		case service.StateDone, service.StateFailed, service.StateCanceled:
		default:
			writeError(w, &client.Error{Code: client.CodeNotFinished,
				Message: fmt.Sprintf("job %s is %s", j.ID(), j.State())})
			return
		}
		res, err := j.Result()
		if err != nil {
			code := client.CodeJobFailed
			if j.State() == service.StateCanceled {
				code = client.CodeJobCanceled
			}
			writeError(w, &client.Error{Code: code, Message: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, client.FromServiceResult(res))
	})
	mux.HandleFunc("GET /api/v2/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, notFound(r.PathValue("id")))
			return
		}
		streamEvents(w, r, j)
	})
	mux.HandleFunc("GET /api/v2/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	// Prometheus text-format exposition of the same snapshot.
	mux.HandleFunc("GET /metrics", metrics.Handler(s.Metrics))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// decodeSpec reads a POST /api/v2/jobs body: a frame when the request
// says frame.ContentType, JSON otherwise.
func decodeSpec(w http.ResponseWriter, r *http.Request) (client.Spec, error) {
	if mt, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); mt != frame.ContentType {
		var spec client.Spec
		return spec, decodeJSON(w, r, &spec)
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		return client.Spec{}, &client.Error{Code: client.CodeBadRequest, Message: "read request: " + err.Error()}
	}
	return client.DecodeFrame(data)
}

// decodeJSON decodes a JSON request body into v. Anything but whitespace
// after the one JSON value is an error.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(v); err != nil {
		return &client.Error{Code: client.CodeBadRequest, Message: "decode request: " + err.Error()}
	}
	if _, err := dec.Token(); err != io.EOF {
		return &client.Error{Code: client.CodeBadRequest, Message: "decode request: data after the JSON body"}
	}
	return nil
}

// submit runs one spec through idempotent submission and shapes the
// response status.
func submit(s *service.Service, spec client.Spec) (client.Status, error) {
	jspec, err := client.ServiceSpec(spec)
	if err != nil {
		return client.Status{}, err
	}
	// Jobs outlive the submitting connection: cancellation goes through
	// DELETE.
	j, reused, err := s.SubmitKeyed(context.Background(), spec.IdempotencyKey, jspec)
	if err != nil {
		return client.Status{}, client.FromServiceError(err)
	}
	st := client.FromServiceStatus(j.Status())
	st.Reused = reused
	return st, nil
}

// streamEvents serves one job's progress stream until the terminal event
// or client disconnect: NDJSON by default, SSE when the client asks for
// text/event-stream. Subscription teardown is immediate on disconnect —
// the request context's Done fires, the subscriber detaches, and the
// job's fan-out never blocks on the dead connection either way.
func streamEvents(w http.ResponseWriter, r *http.Request, j *service.Job) {
	// Compound Accept values ("text/event-stream, */*", q-params) still
	// mean the consumer wants SSE framing.
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	events, stop := j.Subscribe(0)
	defer stop()
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return // terminal event delivered; stream complete
			}
			if sse {
				fmt.Fprintf(w, "event: %s\ndata: ", ev.Type)
			}
			if err := enc.Encode(client.FromServiceEvent(ev)); err != nil {
				return
			}
			if sse {
				fmt.Fprint(w, "\n")
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func notFound(id string) *client.Error {
	return &client.Error{Code: client.CodeNotFound, Message: fmt.Sprintf("unknown job %q", id)}
}

// statusFor maps an error code to its HTTP status.
func statusFor(code string) int {
	switch code {
	case client.CodeBadRequest, client.CodeInvalidSpec:
		return http.StatusBadRequest
	case client.CodeNotFound:
		return http.StatusNotFound
	case client.CodeNotFinished, client.CodeJobFailed, client.CodeJobCanceled:
		return http.StatusConflict
	case client.CodeQuotaExceeded, client.CodeRateLimited:
		return http.StatusTooManyRequests
	case client.CodeQueueFull, client.CodeClosed:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeError serializes any error as a structured v2 error body.
func writeError(w http.ResponseWriter, err error) {
	var ce *client.Error
	if !errors.As(err, &ce) {
		ce = &client.Error{Code: client.CodeInternal, Message: err.Error()}
	}
	writeJSON(w, statusFor(ce.Code), ce)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
