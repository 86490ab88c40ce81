package client

import (
	"encoding/json"
	"errors"
	"math/rand"

	"repro/internal/matrix"
	"repro/internal/service"
)

// This file bridges the public wire types and the internal service layer.
// It is consumed by the Local client and by the in-module HTTP server
// (internal/httpapi), which serves exactly these shapes over /api/v2 — one
// definition of the wire protocol, two transports. The helpers are
// exported for that server layer; their parameter types are internal, so
// they are of no use to importers outside this module.

// maxSpecN bounds the matrix size a single submission may ask the server
// to materialize (a 4096² matrix is already 128 MiB); without it one
// request could allocate arbitrarily much memory before any spec
// validation runs.
const maxSpecN = 4096

// ServiceSpec lowers a Spec into the service's JobSpec, materializing its
// input matrix: a copy of explicit data, or the seeded generator's output
// (matrix.RandomSymmetric, the paper's test-matrix distribution). The
// input's shape is checked before anything is allocated. Failures are
// CodeInvalidSpec *Errors naming the offending field.
func ServiceSpec(s Spec) (service.JobSpec, error) {
	var a *matrix.Dense
	switch {
	case s.Matrix != nil && s.Random != nil:
		return service.JobSpec{}, errf(CodeInvalidSpec, "matrix", "request has both matrix and random")
	case s.Matrix != nil:
		n := s.Matrix.N
		if n <= 0 || n > maxSpecN {
			return service.JobSpec{}, errf(CodeInvalidSpec, "matrix", "matrix size %d out of range [1,%d]", n, maxSpecN)
		}
		if len(s.Matrix.Data) != n*n {
			return service.JobSpec{}, errf(CodeInvalidSpec, "matrix", "matrix n=%d wants %d values, got %d", n, n*n, len(s.Matrix.Data))
		}
		a = &matrix.Dense{Rows: n, Cols: n, Data: append([]float64(nil), s.Matrix.Data...)}
		if !a.IsSymmetric(0) {
			return service.JobSpec{}, errf(CodeInvalidSpec, "matrix", "matrix is not symmetric")
		}
	case s.Random != nil:
		if s.Random.N <= 0 || s.Random.N > maxSpecN {
			return service.JobSpec{}, errf(CodeInvalidSpec, "random", "random matrix size %d out of range [1,%d]", s.Random.N, maxSpecN)
		}
		a = matrix.RandomSymmetric(s.Random.N, rand.New(rand.NewSource(s.Random.Seed)))
	default:
		return service.JobSpec{}, errf(CodeInvalidSpec, "matrix", "request has neither matrix nor random")
	}
	return service.JobSpec{
		Matrix:      a,
		Dim:         s.Dim,
		Ordering:    s.Ordering,
		Backend:     s.Backend,
		Pipelined:   s.Pipelined,
		PipelineQ:   s.PipelineQ,
		Tol:         s.Tol,
		MaxSweeps:   s.MaxSweeps,
		FixedSweeps: s.FixedSweeps,
		CostOnly:    s.CostOnly,
		WantTrace:   s.Trace,
		OnePort:     s.OnePort,
		Ts:          s.Ts,
		Tw:          s.Tw,
		Tc:          s.Tc,
		Priority:    service.Priority(s.Priority),
		Label:       s.Label,
		Tenant:      s.Tenant,
	}, nil
}

// FromServiceStatus lifts a service job snapshot into the wire shape.
func FromServiceStatus(st service.Status) Status {
	return Status{
		ID:               st.ID,
		Label:            st.Label,
		Tenant:           st.Tenant,
		State:            string(st.State),
		Backend:          st.Backend,
		Priority:         int(st.Priority),
		N:                st.N,
		Dim:              st.Dim,
		Ordering:         st.Ordering,
		CacheHit:         st.CacheHit,
		Restarts:         st.Restarts,
		ResumedFromSweep: st.ResumedFromSweep,
		CheckpointEvery:  st.CheckpointEvery,
		Error:            st.Error,
		WaitMs:           st.WaitMs,
		RunMs:            st.RunMs,
		Submitted:        st.Submitted,
	}
}

// FromServiceResult lifts a job result into the wire shape. The trace
// summary is carried as raw JSON: the wire protocol passes it through
// without owning its schema.
func FromServiceResult(r *service.Result) *Result {
	out := &Result{
		Backend:     r.Backend,
		Values:      r.Values,
		Sweeps:      r.Sweeps,
		Converged:   r.Converged,
		Interrupted: r.Interrupted,
		Rotations:   r.Rotations,
		FinalMaxRel: r.FinalMaxRel,
		Makespan:    r.Makespan,
		Messages:    r.Messages,
		Elements:    r.Elements,
		RawElements: r.RawElements,
		WallMs:      r.WallMs,
	}
	if r.Trace != nil {
		if data, err := json.Marshal(r.Trace); err == nil {
			out.Trace = data
		}
	}
	return out
}

// FromServiceEvent lifts one progress event into the wire shape.
func FromServiceEvent(ev service.Event) Event {
	out := Event{
		Seq:      ev.Seq,
		Type:     EventType(ev.Type),
		State:    string(ev.State),
		JobID:    ev.JobID,
		Time:     ev.Time,
		CacheHit: ev.CacheHit,
		Error:    ev.Error,
		Dropped:  ev.Dropped,
	}
	if ev.Sweep != nil {
		out.Sweep = &SweepProgress{
			Sweep:     ev.Sweep.Sweep,
			MaxRel:    ev.Sweep.MaxRel,
			OffNorm:   ev.Sweep.OffNorm,
			Rotations: ev.Sweep.Rotations,
		}
	}
	return out
}

// FromServiceError maps a service failure to the typed *Error the wire
// protocol serializes: spec validation failures keep their field, the
// sentinel submission failures keep their code, everything else is
// internal. A nil error passes through.
func FromServiceError(err error) error {
	if err == nil {
		return nil
	}
	var spec *service.SpecError
	switch {
	case errors.As(err, &spec):
		code := CodeInvalidSpec
		if spec.Field == "cursor" {
			// A malformed cursor is a request-shape problem, not a job-spec
			// one; both transports report it the same way.
			code = CodeBadRequest
		}
		return &Error{Code: code, Field: spec.Field, Message: spec.Msg}
	case errors.Is(err, service.ErrQuotaExceeded):
		return &Error{Code: CodeQuotaExceeded, Message: err.Error()}
	case errors.Is(err, service.ErrRateLimited):
		return &Error{Code: CodeRateLimited, Message: err.Error()}
	case errors.Is(err, service.ErrQueueFull):
		return &Error{Code: CodeQueueFull, Message: err.Error()}
	case errors.Is(err, service.ErrClosed):
		return &Error{Code: CodeClosed, Message: err.Error()}
	default:
		return &Error{Code: CodeInternal, Message: err.Error()}
	}
}
