package client

import (
	"context"
	"errors"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// LocalConfig sizes the in-process service a Local client owns. Zero
// values select the service defaults; see internal/service.Config for the
// semantics (in particular: MulticoreThreshold 0 means the default of 64,
// negative means "never auto-select multicore"; RetainJobs negative
// retains every finished job record).
type LocalConfig struct {
	Workers            int
	QueueCap           int
	MulticoreThreshold int
	CacheCap           int
	RetainJobs         int
	// TenantQueueQuota bounds queued jobs per tenant (0 disables);
	// TenantRate/TenantBurst configure the per-tenant token-bucket submit
	// rate limit (0 disables); ShedHighWater enables priority-aware load
	// shedding at that queue depth (0 disables). See service.Config.
	TenantQueueQuota int
	TenantRate       float64
	TenantBurst      int
	ShedHighWater    int
	// CacheMaxBytes bounds the result cache's estimated footprint in
	// bytes on top of CacheCap's entry bound (0 = unbounded by bytes).
	CacheMaxBytes int64
	// LaneWidth (>= 2) enables the batched solve lane: up to LaneWidth
	// same-shape small jobs gathered within LaneWindow advance in SIMD
	// lockstep on one worker (see DESIGN.md §11). LaneWindow is the
	// longest a leader waits; it waits only while a mate is due.
	LaneWidth  int
	LaneWindow time.Duration
	// DataDir, when non-empty, makes the owned service durable: jobs are
	// journaled to this directory and running solves checkpoint at sweep
	// boundaries, so a new Local client opened on the same directory
	// recovers finished results, re-enqueues queued jobs and resumes
	// in-flight ones from their last checkpoint (see `jacobitool serve
	// -data` and DESIGN.md §10). CheckpointEvery tunes the cadence:
	// 0 = by cost (saves take at most 5% of the predicted solve time, but
	// at least one lands half way through a job; every sweep until a job
	// of the same shape has measured sweep and save times), k > 0 = every
	// k sweeps, negative = no checkpoints.
	DataDir         string
	CheckpointEvery int
}

// Local is the in-process Client: it creates and owns a batch-solve
// service, so Submit runs jobs on this process's worker pool. Close shuts
// the service down.
type Local struct {
	svc *service.Service
	st  *store.Store
}

var _ Client = (*Local)(nil)

// NewLocal starts an in-process service and returns the client wrapping
// it. With a DataDir, the journal there is replayed first; an unreadable
// journal is an error.
func NewLocal(cfg LocalConfig) (*Local, error) {
	var st *store.Store
	if cfg.DataDir != "" {
		var err error
		if st, err = store.Open(cfg.DataDir); err != nil {
			return nil, err
		}
	}
	return &Local{st: st, svc: service.New(service.Config{
		Workers:            cfg.Workers,
		QueueCap:           cfg.QueueCap,
		TenantQueueQuota:   cfg.TenantQueueQuota,
		TenantRate:         cfg.TenantRate,
		TenantBurst:        cfg.TenantBurst,
		ShedHighWater:      cfg.ShedHighWater,
		MulticoreThreshold: cfg.MulticoreThreshold,
		CacheCap:           cfg.CacheCap,
		CacheMaxBytes:      cfg.CacheMaxBytes,
		LaneWidth:          cfg.LaneWidth,
		LaneWindow:         cfg.LaneWindow,
		RetainJobs:         cfg.RetainJobs,
		Store:              st,
		CheckpointEvery:    cfg.CheckpointEvery,
	})}, nil
}

// Submit validates and enqueues one job on the in-process service.
func (l *Local) Submit(ctx context.Context, spec Spec) (JobHandle, error) {
	jspec, err := ServiceSpec(spec)
	if err != nil {
		return nil, err
	}
	// The job's lifetime is the handle's, not the submission context's:
	// both transports behave identically (an HTTP submission also detaches
	// the job from the submitting connection).
	j, reused, err := l.svc.SubmitKeyed(context.WithoutCancel(ctx), spec.IdempotencyKey, jspec)
	if err != nil {
		return nil, FromServiceError(err)
	}
	return &localHandle{j: j, reused: reused}, nil
}

// Jobs pages through the service's tracked jobs in submission order.
func (l *Local) Jobs(ctx context.Context, opts ListOptions) (*JobPage, error) {
	jobs, next, err := l.svc.JobsPage(opts.Cursor, opts.Limit)
	if err != nil {
		return nil, FromServiceError(err)
	}
	page := &JobPage{Jobs: make([]Status, len(jobs)), NextCursor: next}
	for i, j := range jobs {
		page.Jobs[i] = FromServiceStatus(j.Status())
	}
	return page, nil
}

// Handle attaches to an existing job by ID; false when the ID is unknown
// (or its record already evicted).
func (l *Local) Handle(id string) (JobHandle, bool) {
	j, ok := l.svc.Job(id)
	if !ok {
		return nil, false
	}
	return &localHandle{j: j}, true
}

// Metrics returns the service's cumulative counters.
func (l *Local) Metrics(ctx context.Context) (*Metrics, error) {
	m := l.svc.Metrics()
	return &m, nil
}

// Close shuts the owned service down: queued jobs are canceled, running
// ones interrupted at their next sweep boundary and awaited. With a
// DataDir, jobs cut short here stay live in the journal and resume when a
// client reopens the directory; the journal handle closes last.
func (l *Local) Close() error {
	l.svc.Close()
	if l.st != nil {
		return l.st.Close()
	}
	return nil
}

// localHandle adapts a *service.Job to the JobHandle interface.
type localHandle struct {
	j      *service.Job
	reused bool
}

func (h *localHandle) ID() string { return h.j.ID() }

func (h *localHandle) Status(ctx context.Context) (*Status, error) {
	st := FromServiceStatus(h.j.Status())
	st.Reused = h.reused
	return &st, nil
}

func (h *localHandle) Wait(ctx context.Context) (*Result, error) {
	res, err := h.j.Wait(ctx)
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return nil, err
		}
		return nil, h.terminalError(err)
	}
	return FromServiceResult(res), nil
}

func (h *localHandle) Result(ctx context.Context) (*Result, error) {
	switch h.j.State() {
	case service.StateDone, service.StateFailed, service.StateCanceled:
	default:
		return nil, errf(CodeNotFinished, "", "job %s is %s", h.j.ID(), h.j.State())
	}
	res, err := h.j.Result()
	if err != nil {
		return nil, h.terminalError(err)
	}
	return FromServiceResult(res), nil
}

// terminalError shapes a finished-without-result outcome.
func (h *localHandle) terminalError(err error) error {
	code := CodeJobFailed
	if h.j.State() == service.StateCanceled {
		code = CodeJobCanceled
	}
	msg := "(no cause recorded)"
	if err != nil {
		msg = err.Error()
	}
	return errf(code, "", "job %s: %s", h.j.ID(), msg)
}

func (h *localHandle) Cancel(ctx context.Context) error {
	h.j.Cancel()
	return nil
}

// Events subscribes to the job's progress stream: history replay first,
// then live events, closed after the terminal event or when ctx ends.
func (h *localHandle) Events(ctx context.Context) (<-chan Event, error) {
	in, stop := h.j.Subscribe(0)
	out := make(chan Event)
	go func() {
		defer close(out)
		defer stop()
		for {
			select {
			case ev, ok := <-in:
				if !ok {
					return
				}
				select {
				case out <- FromServiceEvent(ev):
				case <-ctx.Done():
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}
