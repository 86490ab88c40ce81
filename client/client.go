// Package client is the public facade for running eigensolves through the
// repository's batch-solve service: one Client interface with two
// interchangeable implementations —
//
//   - Local: an in-process service (worker pool, backend auto-selection,
//     result cache) created and owned by the client;
//   - HTTP: a remote `jacobitool serve` instance, spoken to over the
//     versioned /api/v2 wire protocol.
//
// Both implementations pass the same conformance suite: submit, wait,
// cancel, status, result, metrics, and — central to the design — a typed
// per-job progress stream (queued → started → per-sweep convergence →
// terminal) consumed identically whether the solve runs in this process or
// across the network. Code written against Client runs unchanged in either
// deployment; `jacobitool submit/watch/batch` are themselves Client
// consumers, switched by one -remote flag.
//
// Event streams replay the job's history on subscription, so a consumer
// that attaches late (or reconnects) still observes the full ordered
// sequence; slow consumers lose intermediate sweep events, never the
// terminal one (see DESIGN.md, "Client API", for the drop policy).
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Client is one connection to a batch-solve service, local or remote.
// Implementations are safe for concurrent use.
type Client interface {
	// Submit validates and enqueues one job. The job outlives ctx (cancel
	// it through the handle); ctx only bounds the submission itself.
	Submit(ctx context.Context, spec Spec) (JobHandle, error)
	// Jobs lists tracked jobs in submission order, one page at a time.
	Jobs(ctx context.Context, opts ListOptions) (*JobPage, error)
	// Metrics returns the service's cumulative counters.
	Metrics(ctx context.Context) (*Metrics, error)
	// Close releases the client. Closing a Local client shuts its service
	// down (canceling live jobs); closing an HTTP client only drops
	// connections — the remote server keeps running.
	Close() error
}

// JobHandle tracks one submitted job.
type JobHandle interface {
	// ID is the service-assigned job identifier.
	ID() string
	// Status returns the job's current snapshot.
	Status(ctx context.Context) (*Status, error)
	// Wait blocks until the job reaches a terminal state or ctx expires,
	// returning the result (an *Error with CodeJobFailed/CodeJobCanceled
	// when the job did not finish cleanly).
	Wait(ctx context.Context) (*Result, error)
	// Result returns the finished job's result without blocking; an *Error
	// with CodeNotFinished while the job is still queued or running.
	Result(ctx context.Context) (*Result, error)
	// Cancel withdraws a queued job or interrupts a running one at its
	// next sweep boundary.
	Cancel(ctx context.Context) error
	// Events streams the job's typed progress events: the full history so
	// far is replayed first (so the queued → started prefix is never
	// missed), then live events follow; the channel closes right after the
	// terminal event, or when ctx is canceled. Slow consumers lose the
	// oldest intermediate events (Event.Dropped counts them), never the
	// terminal one.
	Events(ctx context.Context) (<-chan Event, error)
}

// BatchSubmitter is the optional batch-submission capability of a Client.
// The HTTP client implements it with one POST /api/v2/batch round trip;
// use SubmitAll to exploit it transparently.
type BatchSubmitter interface {
	SubmitAll(ctx context.Context, specs []Spec) ([]JobHandle, error)
}

// SubmitAll submits a batch of specs through c, using its BatchSubmitter
// fast path when available and falling back to sequential Submit calls
// otherwise. It fails fast on the first rejected spec; already-accepted
// jobs keep running and are returned alongside the error.
func SubmitAll(ctx context.Context, c Client, specs []Spec) ([]JobHandle, error) {
	if bs, ok := c.(BatchSubmitter); ok {
		return bs.SubmitAll(ctx, specs)
	}
	handles := make([]JobHandle, 0, len(specs))
	for i, spec := range specs {
		h, err := c.Submit(ctx, spec)
		if err != nil {
			return handles, fmt.Errorf("spec %d: %w", i, err)
		}
		handles = append(handles, h)
	}
	return handles, nil
}

// MatrixSpec is an explicit symmetric input: n×n column-major values.
type MatrixSpec struct {
	N    int       `json:"n"`
	Data []float64 `json:"data"`
}

// RandomSpec asks the service to generate the paper's deterministic
// test-matrix distribution for a seed, so callers need not ship n² values.
type RandomSpec struct {
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
}

// Spec describes one solve request: the problem (exactly one of Matrix or
// Random), the numerical options, and what the caller wants back. Zero
// options select the service defaults (permuted-BR ordering, backend
// auto-selection, Ts=1000/Tw=100).
type Spec struct {
	// Label tags the job in statuses and tables.
	Label string `json:"label,omitempty"`
	// Matrix is an explicit symmetric input; Random a seeded generator.
	Matrix *MatrixSpec `json:"matrix,omitempty"`
	Random *RandomSpec `json:"random,omitempty"`
	// Dim is the hypercube dimension d (2^d nodes).
	Dim int `json:"dim"`
	// Ordering selects the Jacobi ordering (br, pbr, d4, minalpha).
	Ordering string `json:"ordering,omitempty"`
	// Backend selects the execution substrate (auto, emulated, multicore,
	// analytic); "" applies the service's auto-selection rules.
	Backend string `json:"backend,omitempty"`
	// Pipelined applies communication pipelining; PipelineQ forces a
	// degree (0 = cost-model optimum).
	Pipelined bool `json:"pipelined,omitempty"`
	PipelineQ int  `json:"pipeline_q,omitempty"`
	// Tol and MaxSweeps control convergence (0 = solver defaults).
	Tol       float64 `json:"tol,omitempty"`
	MaxSweeps int     `json:"max_sweeps,omitempty"`
	// FixedSweeps runs exactly that many sweeps with no convergence check.
	FixedSweeps int `json:"fixed_sweeps,omitempty"`
	// CostOnly asks for the modeled makespan only (analytic backend).
	CostOnly bool `json:"cost_only,omitempty"`
	// Trace requests the virtual-clock communication trace summary.
	Trace bool `json:"trace,omitempty"`
	// OnePort switches the machine to the one-port configuration.
	OnePort bool `json:"one_port,omitempty"`
	// Ts, Tw, Tc are the machine cost parameters (0 → 1000/100/0).
	Ts float64 `json:"ts,omitempty"`
	Tw float64 `json:"tw,omitempty"`
	Tc float64 `json:"tc,omitempty"`
	// Priority orders the queue (-1 low, 0 normal, 1 high).
	Priority int `json:"priority,omitempty"`
	// Tenant names the submitter for the service's admission control
	// (per-tenant queue quota and submit rate limit); "" is the default
	// tenant. Rejections surface as CodeQuotaExceeded / CodeRateLimited.
	Tenant string `json:"tenant,omitempty"`
	// IdempotencyKey deduplicates submissions: a key already used returns
	// the job it named (Status.Reused set) instead of enqueuing a
	// duplicate, for as long as that job's record is retained.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// Status is a point-in-time snapshot of a job.
type Status struct {
	ID       string `json:"id"`
	Label    string `json:"label,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	State    string `json:"state"`
	Backend  string `json:"backend"`
	Priority int    `json:"priority"`
	N        int    `json:"n"`
	Dim      int    `json:"dim"`
	Ordering string `json:"ordering"`
	CacheHit bool   `json:"cache_hit"`
	// Reused marks a submission answered by an existing job via its
	// idempotency key (set on submit responses only).
	Reused bool `json:"reused,omitempty"`
	// Restarts counts service restarts that interrupted the job while it
	// was running; ResumedFromSweep is the completed-sweep count of the
	// durable checkpoint its latest re-enqueue resumed from (0 = from
	// scratch). Both are zero unless the server runs with a durable store
	// (`jacobitool serve -data`).
	Restarts         int `json:"restarts,omitempty"`
	ResumedFromSweep int `json:"resumed_from_sweep,omitempty"`
	// CheckpointEvery is the sweep cadence the job's run checkpoints at
	// on a durable server (chosen by cost unless the server fixes it with
	// `serve -checkpoint-every`); 0 while queued and for runs that do not
	// checkpoint.
	CheckpointEvery int     `json:"checkpoint_every,omitempty"`
	Error           string  `json:"error,omitempty"`
	WaitMs          float64 `json:"wait_ms"`
	RunMs           float64 `json:"run_ms"`
	Submitted       string  `json:"submitted"`
}

// Terminal reports whether the state is done, failed or canceled.
func (s *Status) Terminal() bool {
	return s.State == StateDone || s.State == StateFailed || s.State == StateCanceled
}

// Job lifecycle states, as they appear in Status.State and Event.State.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Result is what a finished job produced.
type Result struct {
	// Backend is the resolved execution backend that ran the job.
	Backend string `json:"backend"`
	// Values are the eigenvalues in ascending order.
	Values []float64 `json:"values"`
	// Sweeps, Converged, Interrupted, Rotations, FinalMaxRel mirror the
	// solver's convergence bookkeeping.
	Sweeps      int     `json:"sweeps"`
	Converged   bool    `json:"converged"`
	Interrupted bool    `json:"interrupted,omitempty"`
	Rotations   int     `json:"rotations"`
	FinalMaxRel float64 `json:"final_max_rel"`
	// Makespan is the modeled virtual time (0 on multicore); Messages,
	// Elements and RawElements count the run's communication.
	Makespan    float64 `json:"makespan"`
	Messages    int     `json:"messages"`
	Elements    int     `json:"elements"`
	RawElements int     `json:"raw_elements"`
	// WallMs is the host time the solve took, in milliseconds.
	WallMs float64 `json:"wall_ms"`
	// Trace is the communication-trace summary of traced jobs, passed
	// through verbatim.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// EventType tags one entry of a job's progress stream.
type EventType string

// Event types, in lifecycle order. Every stream is queued → started →
// zero or more sweep events → exactly one terminal event (done, failed or
// canceled).
const (
	EventQueued   EventType = "queued"
	EventStarted  EventType = "started"
	EventSweep    EventType = "sweep"
	EventDone     EventType = "done"
	EventFailed   EventType = "failed"
	EventCanceled EventType = "canceled"
)

// Terminal reports whether the event ends its job's stream.
func (t EventType) Terminal() bool {
	return t == EventDone || t == EventFailed || t == EventCanceled
}

// SweepProgress is the payload of an EventSweep: the globally reduced
// convergence statistics of one completed sweep.
type SweepProgress struct {
	// Sweep is the 1-based count of completed sweeps.
	Sweep int `json:"sweep"`
	// MaxRel is the sweep's largest relative off-diagonal value; OffNorm
	// the running off-norm estimate sqrt(Σγ²); Rotations the sweep's
	// applied rotation count.
	MaxRel    float64 `json:"max_rel"`
	OffNorm   float64 `json:"off_norm"`
	Rotations int     `json:"rotations"`
}

// Event is one entry of a job's progress stream.
type Event struct {
	// Seq numbers the job's events from 1, strictly increasing even across
	// drops, so gaps are detectable.
	Seq int `json:"seq"`
	// Type tags the event; State is the job state after it.
	Type  EventType `json:"type"`
	State string    `json:"state"`
	JobID string    `json:"job_id"`
	// Time is the event's wall-clock timestamp at the service.
	Time time.Time `json:"time"`
	// Sweep carries the per-sweep payload of EventSweep entries.
	Sweep *SweepProgress `json:"sweep,omitempty"`
	// CacheHit marks a terminal EventDone served from the result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error carries the failure or cancellation cause of terminal events.
	Error string `json:"error,omitempty"`
	// Dropped counts the events this subscriber lost immediately before
	// this one (slow-subscriber policy).
	Dropped int `json:"dropped,omitempty"`
}

// ListOptions pages through a service's job listing.
type ListOptions struct {
	// Cursor resumes a listing from a previous page's NextCursor; ""
	// starts from the oldest retained job.
	Cursor string
	// Limit bounds the page size (0 = service default of 100).
	Limit int
}

// JobPage is one page of a job listing.
type JobPage struct {
	Jobs []Status `json:"jobs"`
	// NextCursor resumes the listing after this page; "" when exhausted.
	NextCursor string `json:"next_cursor,omitempty"`
}

// Metrics (the body of GET /api/v2/metrics), its per-outcome LatencyStats
// and its cluster section are declared once, in internal/metrics, whose
// struct tags also drive the server's Prometheus exposition.
type (
	Metrics        = metrics.Snapshot
	LatencyStats   = metrics.LatencyStats
	ClusterMetrics = metrics.ClusterMetrics
)
