package service

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/ordering"
	"repro/internal/trace"
)

// Priority orders queued jobs: higher runs first; equal priorities run in
// submission order.
type Priority int

const (
	// PriorityLow is background work (bulk batch fills).
	PriorityLow Priority = -1
	// PriorityNormal is the default.
	PriorityNormal Priority = 0
	// PriorityHigh jumps the queue (interactive queries).
	PriorityHigh Priority = 1
)

// Backend names accepted by JobSpec.Backend. BackendAuto (or "") lets the
// service pick per the auto-selection rules (see selectBackend).
const (
	BackendAuto      = "auto"
	BackendEmulated  = "emulated"
	BackendMulticore = "multicore"
	BackendAnalytic  = "analytic"
	// BackendLane runs the job on the batched solve lane: the scheduler
	// gathers same-shape small jobs and advances up to Config.LaneWidth of
	// them in SIMD lockstep through one sweep schedule (engine
	// BatchedBackend). Auto-selection routes small jobs here when lanes are
	// enabled; it can also be requested explicitly.
	BackendLane = "lane"
)

// JobSpec describes one solve request: the problem, the numerical options,
// and what the caller wants back. The zero value of every option selects
// the repository's defaults (permuted-BR ordering, Ts=1000, Tw=100, the
// paper's Figure 2 machine).
type JobSpec struct {
	// Matrix is the symmetric input. The service never mutates it, but it
	// must not be modified while the job is queued or running (the
	// fingerprint is taken at submission).
	Matrix *matrix.Dense
	// Dim is the hypercube dimension d (2^d nodes).
	Dim int
	// Ordering selects the Jacobi ordering by CLI name (br, pbr, d4,
	// minalpha); "" = pbr.
	Ordering string
	// Backend selects the execution substrate; "" or "auto" applies the
	// service's auto-selection rules.
	Backend string
	// Pipelined applies communication pipelining; PipelineQ forces a
	// degree (0 = cost-model optimum).
	Pipelined bool
	PipelineQ int
	// Tol and MaxSweeps control convergence (0 = solver defaults).
	Tol       float64
	MaxSweeps int
	// FixedSweeps runs exactly that many sweeps with no convergence
	// reduction (cost-model comparisons). Fixed-sweep runs are not
	// interruptible mid-flight; they are bounded by construction.
	FixedSweeps int
	// CostOnly marks the job as a cost query: the caller wants the modeled
	// makespan, not a hardware-speed solve, so auto-selection picks the
	// analytic backend; FixedSweeps defaults to 1 so the makespan equals
	// the closed-form per-sweep cost model exactly.
	CostOnly bool
	// WantTrace requests the virtual-clock communication trace summary,
	// which only the emulated machine can produce; auto-selection then
	// picks the emulated backend.
	WantTrace bool
	// OnePort switches the machine to the one-port configuration.
	OnePort bool
	// Ts, Tw, Tc are the machine cost parameters (0 → 1000/100/0).
	Ts, Tw, Tc float64
	// Priority orders the queue; Label tags the job in statuses and tables.
	Priority Priority
	Label    string
	// Tenant names the submitter for admission control (per-tenant queue
	// quota and submit rate limit, see Config). "" is the default tenant.
	// Tenancy is an admission concept only: it is deliberately NOT part of
	// the result-cache fingerprint, so identical problems share one cached
	// result across tenants.
	Tenant string
}

// withDefaults fills the zero fields with the service defaults.
func (s JobSpec) withDefaults() JobSpec {
	if s.Ordering == "" {
		s.Ordering = "pbr"
	}
	if s.Backend == "" {
		s.Backend = BackendAuto
	}
	if s.Ts == 0 {
		s.Ts = 1000
	}
	if s.Tw == 0 {
		s.Tw = 100
	}
	if s.CostOnly && s.FixedSweeps == 0 {
		s.FixedSweeps = 1
	}
	return s
}

// SpecError is a validation failure attributable to one field of a job
// spec or submission request. The HTTP layer serializes it into the v2
// structured error body ({code, message, field}).
type SpecError struct {
	// Field names the offending spec field in wire (JSON) spelling.
	Field string
	// Msg describes the failure.
	Msg string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("service: %s: %s", e.Field, e.Msg)
}

// specErrf builds a SpecError for a field.
func specErrf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// validate rejects specs the solver would fail on, before they queue.
// Every failure is a *SpecError naming the offending field.
func (s JobSpec) validate() error {
	if s.Matrix == nil {
		return specErrf("matrix", "job has no matrix")
	}
	if s.Matrix.Rows != s.Matrix.Cols {
		return specErrf("matrix", "matrix is %dx%d, want square", s.Matrix.Rows, s.Matrix.Cols)
	}
	if s.Dim < 0 || s.Dim > 16 {
		return specErrf("dim", "dimension %d out of range [0,16]", s.Dim)
	}
	if s.Matrix.Cols < 1<<uint(s.Dim+1) {
		return specErrf("dim", "%d columns cannot fill the %d blocks of a %d-cube", s.Matrix.Cols, 1<<uint(s.Dim+1), s.Dim)
	}
	if _, err := ordering.FamilyByName(s.Ordering); err != nil {
		return specErrf("ordering", "%v", err)
	}
	if s.Priority < PriorityLow || s.Priority > PriorityHigh {
		return specErrf("priority", "priority %d out of range [%d,%d]", s.Priority, PriorityLow, PriorityHigh)
	}
	if len(s.Tenant) > 128 {
		return specErrf("tenant", "tenant name longer than 128 bytes")
	}
	switch s.Backend {
	case BackendAuto, BackendEmulated, BackendMulticore, BackendAnalytic, BackendLane:
	default:
		return specErrf("backend", "unknown backend %q (want auto, emulated, multicore, analytic or lane)", s.Backend)
	}
	if s.WantTrace && s.Backend != BackendAuto && s.Backend != BackendEmulated {
		return specErrf("trace", "a virtual-clock trace requires the emulated backend, not %q", s.Backend)
	}
	if s.Pipelined && s.Backend == BackendLane {
		return specErrf("backend", "the batched lane cannot pipeline (pipelining is a per-solve communication schedule)")
	}
	if s.CostOnly {
		// A cost query needs a clocked backend that models costs: only the
		// analytic backend answers it (multicore has no clock at all), and
		// it records no trace — reject the contradictions instead of
		// returning silently wrong or incomplete results.
		if s.WantTrace {
			return specErrf("cost_only", "a cost-only job cannot request a trace (the analytic backend records none)")
		}
		if s.Backend != BackendAuto && s.Backend != BackendAnalytic {
			return specErrf("cost_only", "a cost-only job requires the analytic backend, not %q", s.Backend)
		}
	}
	return nil
}

// selectBackend applies the auto-selection rules to a normalized spec:
//
//   - analytic for cost-only queries (no data needs to move at all);
//   - emulated when a virtual-clock trace is requested (only the emulator
//     records communication events);
//   - multicore for large problems (n >= threshold), where pointer-handoff
//     shared memory running the fused kernels beats serialized emulation on
//     the reference kernels several times over (the gap grows with n) — a
//     negative threshold disables this rule entirely (multicore is then
//     only ever reached by explicit request);
//   - the batched lane for small problems (n < threshold) when lanes are
//     enabled (laneWidth >= 2): many small solves amortize one sweep
//     schedule across SIMD-lockstep lane mates. Pipelined and fixed-sweep
//     jobs stay off the lane — both exist for the virtual-clock cost
//     model, which the lane (like multicore) does not run;
//   - emulated otherwise: small solves are cheap and the virtual clock's
//     modeled makespan comes for free.
//
// The lane rule is re-evaluated with laneWidth 0 when a lane-routed job's
// gather ends without lane mates: the job then re-checks its shape
// against multicoreThreshold and solves promptly on a solo backend instead
// of waiting for a lane that never fills.
func (s JobSpec) selectBackend(multicoreThreshold, laneWidth int) string {
	if s.Backend != BackendAuto {
		return s.Backend
	}
	switch {
	case s.CostOnly:
		return BackendAnalytic
	case s.WantTrace:
		return BackendEmulated
	case multicoreThreshold > 0 && s.Matrix.Rows >= multicoreThreshold:
		return BackendMulticore
	case laneWidth >= 2 && multicoreThreshold > 0 && !s.Pipelined && s.FixedSweeps == 0:
		return BackendLane
	default:
		return BackendEmulated
	}
}

// fingerprint hashes everything that determines a job's result — matrix
// contents, topology, ordering, numerical options, and the resolved backend
// (results share eigenvalues across backends but not stats) — into the
// result-cache key. FNV-1a over the binary encoding.
func (s JobSpec) fingerprint(backend string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	writeFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	writeBool := func(v bool) {
		if v {
			writeInt(1)
		} else {
			writeInt(0)
		}
	}
	writeInt(s.Matrix.Rows)
	writeInt(s.Matrix.Cols)
	for _, v := range s.Matrix.Data {
		writeFloat(v)
	}
	writeInt(s.Dim)
	h.Write([]byte(s.Ordering))
	h.Write([]byte(backend))
	writeBool(s.Pipelined)
	writeInt(s.PipelineQ)
	writeFloat(s.Tol)
	writeInt(s.MaxSweeps)
	writeInt(s.FixedSweeps)
	writeBool(s.CostOnly)
	writeBool(s.WantTrace)
	writeBool(s.OnePort)
	writeFloat(s.Ts)
	writeFloat(s.Tw)
	writeFloat(s.Tc)
	return h.Sum64()
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Result is what a finished job produced. Cached results are shared between
// jobs with the same fingerprint: treat every field as read-only.
type Result struct {
	// Backend is the resolved execution backend that ran the job.
	Backend string `json:"backend"`
	// Values are the eigenvalues in ascending order.
	Values []float64 `json:"values"`
	// Sweeps, Converged, Interrupted, Rotations, FinalMaxRel mirror
	// engine.EigenResult.
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
	// Trace is the communication-trace summary (WantTrace jobs only).
	Trace *trace.Summary `json:"trace,omitempty"`
}

// clone returns an independent deep copy. The result cache stores and
// hands out clones so no caller ever shares backing slices with the cache
// (or with another caller): mutating a returned Result must never corrupt
// later cache hits.
func (r *Result) clone() *Result {
	cp := *r
	cp.Values = append([]float64(nil), r.Values...)
	if r.Trace != nil {
		tr := *r.Trace
		tr.DimMessages = append([]int(nil), r.Trace.DimMessages...)
		tr.DimShare = append([]float64(nil), r.Trace.DimShare...)
		cp.Trace = &tr
	}
	return &cp
}

// Job is one tracked solve: spec, queue bookkeeping and outcome. All
// exported methods are safe for concurrent use.
type Job struct {
	id       string
	spec     JobSpec   // guarded by mu (the Matrix field is released at finish)
	n        int       // matrix size, outliving the released matrix
	shape    laneShape // lane-compatibility key; immutable after construction
	backend  string    // resolved by auto-selection at submission
	fp       uint64
	priority Priority
	tenant   string // normalized tenant name (DefaultTenant when unset)
	seq      uint64 // FIFO tiebreak within a priority class

	ctx    context.Context
	cancel context.CancelCauseFunc
	svc    *Service

	index int // heap position (-1 once dequeued)
	// inflight marks a job a worker took off the queue and counted in
	// Service.inflight; recordFinish releases the slot.
	inflight bool // guarded by Service.mu

	mu        sync.Mutex
	state     State     // guarded by mu
	err       error     // guarded by mu
	result    *Result   // guarded by mu
	cacheHit  bool      // guarded by mu
	submitted time.Time // guarded by mu
	started   time.Time // guarded by mu
	finished  time.Time // guarded by mu
	done      chan struct{}

	idemKey string // idempotency key the job was submitted under ("" = none)

	// restarts counts how many service restarts interrupted the job while
	// it was running; resume holds the checkpoint recovery loaded for it
	// (consumed by the next solve), resumedFrom that checkpoint's
	// completed-sweep count. All three are set during recovery, before the
	// job is visible to workers; resume is cleared under mu.
	restarts    int
	resumedFrom int
	resume      *engine.Checkpoint
	// ckptEvery is the checkpoint cadence the latest run chose (0 = the
	// run does not checkpoint).
	ckptEvery int // guarded by mu

	evMu sync.Mutex // guards ev; see events.go
	ev   jobEvents
}

// ID returns the service-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Label returns the spec's label.
func (j *Job) Label() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec.Label
}

// Backend returns the resolved execution backend. A lane-routed job that
// ends its gather alone re-resolves to a solo backend, so the
// value may change once between submission and start.
func (j *Job) Backend() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.backend
}

// Fingerprint returns the result-cache key of the job's problem (it
// follows the backend if the job is rerouted off the lane).
func (j *Job) Fingerprint() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fp
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cancel withdraws a queued job (it leaves the queue immediately, freeing
// its QueueCap slot) or interrupts a running one at its next sweep
// boundary. Canceling the context passed to Submit has the same effect on
// a running job, but a job queued under a canceled context is only
// finalized when a worker reaches it.
func (j *Job) Cancel() {
	j.cancel(nil)
	if j.svc != nil {
		j.svc.dropQueued(j)
	}
}

// takeResume hands out (and clears) the recovery checkpoint, exactly once.
func (j *Job) takeResume() *engine.Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	ck := j.resume
	j.resume = nil
	return ck
}

// setCheckpointEvery records the cadence the job's run checkpoints at.
func (j *Job) setCheckpointEvery(k int) {
	j.mu.Lock()
	j.ckptEvery = k
	j.mu.Unlock()
}

// hasResume reports whether a recovery checkpoint is pending. The lane
// scheduler uses it to route resumed jobs to a solo backend (the lane
// engine starts jobs from their canonical placement only).
func (j *Job) hasResume() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resume != nil
}

// Spec returns the job's normalized spec (defaults applied). The matrix is
// shared, not copied — treat it as read-only — and is released once the
// job reaches a terminal state (Spec().Matrix is then nil): retained job
// records must not pin every input matrix ever submitted.
func (j *Job) Spec() JobSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec
}

// Wait blocks until the job finishes (done, failed or canceled) or ctx
// expires, returning the result of Result.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns the finished job's result, or the job's error, or an
// error when the job is still pending.
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed, StateCanceled:
		return nil, j.err
	default:
		return nil, fmt.Errorf("service: job %s is %s", j.id, j.state)
	}
}

// Status is a JSON-ready snapshot of a job.
type Status struct {
	ID       string   `json:"id"`
	Label    string   `json:"label,omitempty"`
	Tenant   string   `json:"tenant,omitempty"`
	State    State    `json:"state"`
	Backend  string   `json:"backend"`
	Priority Priority `json:"priority"`
	N        int      `json:"n"`
	Dim      int      `json:"dim"`
	Ordering string   `json:"ordering"`
	CacheHit bool     `json:"cache_hit"`
	// Restarts counts service restarts that interrupted the job while it
	// was running; ResumedFromSweep is the completed-sweep count of the
	// checkpoint its latest re-enqueue resumed from (0 = from scratch).
	// Both are zero on a service without a durable store.
	Restarts         int `json:"restarts,omitempty"`
	ResumedFromSweep int `json:"resumed_from_sweep,omitempty"`
	// CheckpointEvery is the sweep cadence the job's run checkpoints at
	// (chosen by cost unless the service fixes it); 0 while queued and for
	// runs that do not checkpoint.
	CheckpointEvery int     `json:"checkpoint_every,omitempty"`
	Error           string  `json:"error,omitempty"`
	WaitMs          float64 `json:"wait_ms"`
	RunMs           float64 `json:"run_ms"`
	Submitted       string  `json:"submitted"`
}

// Status returns the job's snapshot.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:               j.id,
		Label:            j.spec.Label,
		Tenant:           j.spec.Tenant,
		State:            j.state,
		Backend:          j.backend,
		Priority:         j.priority,
		N:                j.n,
		Dim:              j.spec.Dim,
		Ordering:         j.spec.Ordering,
		CacheHit:         j.cacheHit,
		Restarts:         j.restarts,
		ResumedFromSweep: j.resumedFrom,
		CheckpointEvery:  j.ckptEvery,
		Submitted:        j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		st.WaitMs = float64(j.started.Sub(j.submitted).Microseconds()) / 1000
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMs = float64(end.Sub(j.started).Microseconds()) / 1000
	}
	return st
}

// finish moves the job to a terminal state exactly once, journals and
// counts the transition, then wakes subscribers and waiters. It must be
// called without s.mu held.
func (j *Job) finish(state State, res *Result, err error, cacheHit bool) {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = res
	j.err = err
	j.cacheHit = cacheHit
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	runMs := float64(j.finished.Sub(j.started).Microseconds()) / 1000
	// Release the input matrix: the record lives on for status/result
	// queries, which no longer need the O(n²) payload.
	j.spec.Matrix = nil
	j.mu.Unlock()
	j.cancel(nil) // release the context's resources
	if j.svc != nil {
		// Persist the terminal transition (durable stores only). Jobs
		// canceled by a service shutdown are deliberately NOT recorded:
		// they stay in-flight in the journal and resume on the next boot.
		j.svc.persistFinished(j, state, res, err)
		// Count the job before done is signaled, so a caller returning
		// from Wait finds it in Metrics.
		j.svc.recordFinish(j, state, res, cacheHit, runMs)
	}
	var et EventType
	switch state {
	case StateDone:
		et = EventDone
	case StateFailed:
		et = EventFailed
	default:
		et = EventCanceled
	}
	ev := Event{Type: et, State: state, CacheHit: cacheHit}
	if err != nil {
		ev.Error = err.Error()
	}
	// The terminal event is published (and every subscriber channel closed)
	// before done is signaled, so a caller returning from Wait observes a
	// complete event stream.
	j.publish(ev)
	close(j.done)
}
