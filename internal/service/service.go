// Package service is the concurrent batch-solve layer of the repository:
// it accepts many eigensolve Problems at once, runs them through a bounded
// worker pool over the engine's execution backends, and picks a backend per
// job when the caller does not care (analytic for cost-only queries,
// multicore for large matrices, emulated when a virtual-clock trace is
// requested). A multi-port hypercube is a throughput device — the paper's
// orderings pay off when many solves are in flight — and this package is
// the layer that keeps them in flight.
//
// Structure:
//
//   - a priority queue with FIFO order inside each priority class and
//     context-aware cancellation (queued jobs are withdrawn; running jobs
//     are interrupted at the next sweep boundary via engine.Problem's
//     Interrupt hook);
//   - a result cache keyed by a problem fingerprint (matrix hash + d +
//     family + options + resolved backend), layered on top of the
//     process-wide ordering.CachedSweep schedule cache: the schedule cache
//     removes redundant schedule builds across different problems, the
//     fingerprint cache removes redundant solves of identical problems;
//   - multi-tenant admission control: a per-tenant queued-job quota and a
//     per-tenant token-bucket submit rate limit (typed ErrQuotaExceeded /
//     ErrRateLimited), plus priority-aware load shedding past a queue
//     high-water mark (queued jobs strictly below the incoming priority
//     are canceled with the typed ErrShed cause before ErrQueueFull ever
//     fires);
//   - per-service metrics (job counts, admission rejections, cache hits,
//     per-outcome wall-time percentiles and histograms, aggregate modeled
//     makespan) — this boot's transitions only; terminal jobs restored
//     from a durable journal land in separate Recovered* counters so a
//     restart never inflates throughput.
//
// jacobitool serve exposes the service over an HTTP JSON API (including a
// Prometheus text-format GET /metrics); jacobitool batch drives it from a
// manifest; jacobitool loadgen floods it with an open-loop arrival
// process. See DESIGN.md, "Service layer" and "Traffic hardening".
package service

import (
	"container/heap"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/ordering"
	"repro/internal/store"
	"repro/internal/trace"
)

// Sentinel submission failures, distinguishable by errors.Is so the client
// layer can map them to structured error codes.
var (
	// ErrClosed reports a submission to a closed service.
	ErrClosed = errors.New("service: closed")
	// ErrQueueFull reports that QueueCap queued jobs already exist.
	ErrQueueFull = errors.New("service: queue full")
	// ErrQuotaExceeded reports a submission refused because the tenant
	// already has TenantQueueQuota jobs queued.
	ErrQuotaExceeded = errors.New("service: tenant queue quota exceeded")
	// ErrRateLimited reports a submission refused by the tenant's
	// token-bucket submit rate limit.
	ErrRateLimited = errors.New("service: tenant rate limited")
	// ErrShed is the cancellation cause of queued jobs removed by
	// priority-aware load shedding: when the queue crosses ShedHighWater,
	// the lowest-priority queued job is shed to admit higher-priority work
	// before ErrQueueFull ever fires. It reaches terminal events, so a
	// watcher can tell a shed from a user cancel.
	ErrShed = errors.New("service: shed under load")
	// ErrShutdown is the cancellation cause of jobs cut short by Close: it
	// reaches terminal events (so a watcher can tell a drain from a user
	// cancel), and jobs canceled with it are not recorded as terminal in
	// the durable store — they resume on the next boot.
	ErrShutdown = errors.New("service: shutting down")
)

// Config sizes the service.
type Config struct {
	// Workers is the solve-pool size. Default: GOMAXPROCS, capped at 8 —
	// every distributed solve already runs 2^d node goroutines.
	Workers int
	// QueueCap bounds the number of queued (not yet running) jobs; Submit
	// fails once it is reached. Default 1024.
	QueueCap int
	// TenantQueueQuota bounds the queued (not yet running) jobs any one
	// tenant (JobSpec.Tenant; "" is the default tenant) may hold; Submit
	// fails with ErrQuotaExceeded past it. 0 disables the per-tenant
	// bound — only the global QueueCap applies.
	TenantQueueQuota int
	// TenantRate enables a per-tenant token-bucket submit rate limit:
	// each tenant's bucket refills at TenantRate submissions per second up
	// to TenantBurst tokens, and a submission with no token available
	// fails with ErrRateLimited. 0 disables rate limiting. Idempotent
	// reuse of an existing job consumes no token.
	TenantRate float64
	// TenantBurst is the token-bucket depth; 0 defaults to
	// ceil(TenantRate), at least 1.
	TenantBurst int
	// ShedHighWater enables priority-aware load shedding: when at least
	// this many jobs are queued at admission time, the submission sheds
	// the lowest-priority (youngest within the class) queued job strictly
	// below its own priority — canceled with the typed ErrShed cause — to
	// make room before ErrQueueFull fires. An incoming job thus only ever
	// displaces strictly lower-priority work, so equal-priority traffic
	// cannot thrash the queue. 0 disables shedding.
	ShedHighWater int
	// MulticoreThreshold is the matrix size n at and above which backend
	// auto-selection switches from the emulated machine to the multicore
	// backend. Default (0) is 64: with the fused multicore kernels
	// (internal/kernel) the emulated machine's wall-clock penalty is ~2.2x
	// there, ~3.0x at n=128 and ~3.5x at n=512 (one sweep, d=3, AVX-512
	// host, see DESIGN.md "Kernel layer"); below it the penalty is small
	// enough that the emulated machine's free virtual-clock makespan is
	// worth keeping by default.
	// A negative value means "never auto-select multicore": every
	// auto-selected job stays on the emulated machine regardless of size
	// (explicit Backend: "multicore" requests are still honored) — useful
	// when the modeled virtual-clock makespan matters more than wall time,
	// or on hosts where the fused-kernel ulp drift is unwanted.
	MulticoreThreshold int
	// CacheCap bounds the result cache (entries); 0 defaults to 256,
	// negative disables caching. Eviction is LRU: lookups refresh an
	// entry's recency, so hot fingerprints survive a full cache.
	CacheCap int
	// CacheMaxBytes additionally bounds the result cache's estimated
	// payload bytes (eigenvalue slices plus trace summaries): the LRU tail
	// is evicted until the estimate fits. 0 or negative means no byte
	// bound (entries are still bounded by CacheCap).
	CacheMaxBytes int64
	// LaneWidth enables the batched solve lane when >= 2: backend
	// auto-selection routes small jobs (n below MulticoreThreshold) to the
	// lane, where a worker gathers up to LaneWidth same-shape jobs and
	// advances them in SIMD lockstep through one sweep schedule
	// (engine.BatchedBackend). 0 or 1 disables lane routing entirely.
	LaneWidth int
	// LaneWindow is the longest a lane leader waits for same-shape lane
	// mates before running a partial lane; it waits only while a mate is
	// due, i.e. while the shape's estimated inter-arrival gap (an EWMA
	// over its lane-routed enqueues) fits in what is left of the window
	// and the shape has not gone quiet since its last enqueue, or while no
	// estimate exists yet. Back-to-back submission fills lanes up to the
	// window; a sparse trickle stops paying for it. Once the gather ends a
	// still-lone job re-resolves to a solo backend and runs immediately.
	// Default 2ms when lanes are enabled.
	LaneWindow time.Duration
	// RetainJobs bounds the finished-job records kept for status/result
	// queries: once exceeded, the oldest terminal jobs are dropped (live
	// jobs are never evicted). 0 defaults to 4096, negative retains
	// everything.
	RetainJobs int
	// Store, when non-nil, makes the service durable: accepted jobs are
	// journaled (fsync'd) before Submit acknowledges them, terminal
	// transitions and results are recorded, and running solves checkpoint
	// their engine state at sweep boundaries. New replays the journal —
	// finished jobs restore into the job table and the result cache,
	// queued jobs re-enqueue, and in-flight jobs resume from their last
	// checkpoint (see recover.go). Nil keeps the service fully in-memory
	// with no persistence cost.
	Store *store.Store
	// CheckpointEvery is the sweep-boundary checkpoint cadence of running
	// jobs when a Store is configured: 0 picks it by cost per job (saves
	// take at most 5% of the predicted solve time, but at least one lands
	// half way through a job; from sweep and save times measured per job
	// shape, every sweep until the shape is measured — see cadence.go),
	// k > 0 checkpoints every k sweeps, negative disables checkpointing
	// (crash recovery then restarts in-flight jobs from scratch).
	// Pipelined and fixed-sweep jobs never checkpoint (the engine cannot
	// cut those mid-run).
	CheckpointEvery int
	// NodeID, when non-empty, qualifies job IDs for cluster mode: IDs
	// become "job-<node>-<seq>" instead of "job-<seq>", which makes them
	// globally unique across a multi-node cluster and carries the owning
	// node as a routing hint. Must not contain '/' (IDs name checkpoint
	// files); the numeric tail after the last '-' stays the recovery
	// ordering key either way.
	NodeID string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.MulticoreThreshold == 0 {
		c.MulticoreThreshold = 64
	}
	if c.CacheCap == 0 {
		c.CacheCap = 256
	}
	if c.TenantRate > 0 && c.TenantBurst <= 0 {
		c.TenantBurst = int(math.Ceil(c.TenantRate))
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	if c.LaneWidth >= 2 && c.LaneWindow == 0 {
		c.LaneWindow = 2 * time.Millisecond
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 4096
	}
	return c
}

// jobHeap orders queued jobs by priority (high first), then submission
// sequence (FIFO).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *jobHeap) Push(x any) {
	j := x.(*Job)
	j.index = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*h = old[:n-1]
	return j
}

// Service is the concurrent batch-solve subsystem. Create with New, stop
// with Close.
type Service struct {
	cfg Config

	mu    sync.Mutex
	cond  *sync.Cond
	queue jobHeap
	jobs  map[string]*Job
	order []string // job IDs in submission order, for listings
	idem  map[string]string
	// The result cache is an LRU keyed by problem fingerprint: cacheList
	// holds *cacheEntry values in recency order (front = most recent),
	// cache indexes them, cacheBytes tracks the estimated payload total
	// for the CacheMaxBytes budget.
	cache      map[uint64]*list.Element
	cacheList  *list.List
	cacheBytes int64
	seq        uint64
	inflight   int
	closed     bool
	// lent tracks queued jobs handed to a cluster peer by LendQueued and
	// not yet settled (completed, returned or expired); see lend.go. Lent
	// jobs count as in-flight here — they left the queue but have no
	// terminal state yet — so the metrics invariant (submitted ==
	// terminal + queued + inflight) holds while work is on loan.
	lent      map[string]*lentEntry
	leaseOnce sync.Once
	stopCh    chan struct{}
	// tenantQueued gauges the queued jobs per tenant (the quota's
	// denominator); buckets holds each tenant's submit-rate token bucket.
	// Both are keyed by the normalized tenant name.
	tenantQueued map[string]int
	buckets      map[string]*tokenBucket
	// laneGaps holds each lane shape's inter-arrival estimate, fed by
	// every lane-routed enqueue and read by gathering leaders (lane.go).
	laneGaps map[laneShape]arrivalGap // guarded by mu

	metrics counters
	// ckpt holds the by-cost checkpoint cadence estimates and the
	// checkpoint counters (cadence.go); it has its own lock.
	ckpt ckptCost
	wg   sync.WaitGroup
	// subWG tracks durable submissions between their registration and the
	// end of their journaling, so Close (and then the caller's
	// store.Close) never races an in-flight append. Add happens under
	// s.mu before the closed flag could be observed set, Wait after it is.
	subWG sync.WaitGroup
}

// New starts a service with cfg.Workers solve workers. With a configured
// Store, the journal is replayed first (restoring finished jobs, warming
// the result cache, re-enqueuing queued and in-flight jobs) before any
// worker starts.
func New(cfg Config) *Service {
	s := &Service{
		cfg:          cfg.withDefaults(),
		jobs:         make(map[string]*Job),
		idem:         make(map[string]string),
		cache:        make(map[uint64]*list.Element),
		cacheList:    list.New(),
		tenantQueued: make(map[string]int),
		buckets:      make(map[string]*tokenBucket),
		lent:         make(map[string]*lentEntry),
		stopCh:       make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.metrics.start = time.Now()
	if s.cfg.Store != nil {
		s.recover()
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Workers returns the solve-pool size.
func (s *Service) Workers() int { return s.cfg.Workers }

// jobID names the job with sequence number seq: "job-<seq>" for a
// standalone service, "job-<node>-<seq>" in cluster mode.
func (s *Service) jobID(seq uint64) string {
	if s.cfg.NodeID == "" {
		return fmt.Sprintf("job-%d", seq)
	}
	return fmt.Sprintf("job-%s-%d", s.cfg.NodeID, seq)
}

// seqOfID extracts a job ID's local sequence number — the numeric tail
// after the last '-' — reporting ok=false for anything else. Both ID
// shapes ("job-7", "job-a-7") parse; the tail orders jobs from one node
// but IDs from different nodes share tails, so cross-node ordering must
// come from elsewhere (recovery renumbers, see recover.go).
func seqOfID(id string) (uint64, bool) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 || !strings.HasPrefix(id, "job-") {
		return 0, false
	}
	n, err := strconv.ParseUint(id[i+1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Submit validates and enqueues one job. The returned Job is immediately
// trackable; cancel it through the job or by canceling ctx. Submit fails
// when the spec is invalid, the queue is full (ErrQueueFull), or the
// service is closed (ErrClosed).
func (s *Service) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	j, _, err := s.SubmitKeyed(ctx, "", spec)
	return j, err
}

// SubmitKeyed is Submit with an idempotency key: a non-empty key that was
// already used returns the job it named (reused=true) instead of enqueuing
// a duplicate, for as long as that job's record is retained (RetainJobs
// eviction also releases the key). The key is compared verbatim and at
// most 128 bytes long (it is retained and journaled with the job); the
// spec of a reused submission is not re-validated against the original.
func (s *Service) SubmitKeyed(ctx context.Context, key string, spec JobSpec) (*Job, bool, error) {
	if len(key) > 128 {
		return nil, false, specErrf("idempotency_key", "idempotency key longer than 128 bytes")
	}
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, false, err
	}
	backend := spec.selectBackend(s.cfg.MulticoreThreshold, s.cfg.LaneWidth)
	var fp uint64
	if s.cfg.CacheCap >= 0 {
		// The fingerprint hashes the whole matrix; skip the O(n²) pass
		// when the result cache is disabled and nothing would consume it.
		fp = spec.fingerprint(backend)
	}
	j := s.newJob(ctx, spec, spec.Matrix.Rows, backend, fp, key)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.cancel(nil)
		return nil, false, ErrClosed
	}
	if key != "" {
		if id, ok := s.idem[key]; ok {
			existing := s.jobs[id]
			s.mu.Unlock()
			j.cancel(nil)
			return existing, true, nil
		}
	}
	// Tenant admission: the token bucket first (a flooding tenant is rate
	// limited before anything else is looked at), then the queued-job
	// quota. Both reject before the job is registered or journaled.
	if err := s.admitTenantLocked(j.tenant); err != nil {
		s.mu.Unlock()
		j.cancel(nil)
		return nil, false, err
	}
	var shed *Job
	if s.cfg.Store == nil {
		var ok bool
		if shed, ok = s.admitQueueLocked(j.priority); !ok {
			s.mu.Unlock()
			s.finishShed(shed)
			j.cancel(nil)
			return nil, false, fmt.Errorf("%w (%d jobs)", ErrQueueFull, s.cfg.QueueCap)
		}
	} else if len(s.queue) >= s.cfg.QueueCap && s.shedVictimLocked(j.priority) < 0 {
		// Durable pre-check: reject up front only when not even shedding
		// could make room — the real shed (if any) happens at enqueue
		// time, after the journal append, so a failed append never costs
		// an innocent queued job.
		s.metrics.QueueFullRejected++
		s.mu.Unlock()
		j.cancel(nil)
		return nil, false, fmt.Errorf("%w (%d jobs)", ErrQueueFull, s.cfg.QueueCap)
	}
	s.seq++
	j.seq = s.seq
	j.id = s.jobID(s.seq)
	// The queued event must enter the history before any worker can pop
	// the job (workers need s.mu, held here) — otherwise a fast worker
	// could publish started first and the stream would open out of order.
	// publish only takes the job's event lock, never s.mu.
	j.publish(Event{Type: EventQueued, State: StateQueued})
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if key != "" {
		s.idem[key] = j.id
	}
	// Submitted counts at registration, so a durable job withdrawn by a
	// failed journal append still balances the books (it also lands in
	// Canceled) and the counters always cover every registered job.
	s.metrics.Submitted++
	if s.cfg.Store == nil {
		// In-memory services enqueue atomically with the admission checks,
		// exactly as before durability existed.
		s.enqueueLocked(j)
		s.evictOldJobsLocked()
		s.mu.Unlock()
		s.finishShed(shed)
		s.cond.Signal()
		return j, false, nil
	}
	// Durable path: the job is registered (visible to listings, holding
	// its ID, seq and idempotency key) but NOT queued yet — the
	// acceptance must hit the journal before any worker can run it, and a
	// failed append must be able to withdraw the job completely, key
	// included, so a retry under the same key resubmits instead of
	// finding a ghost.
	s.subWG.Add(1)
	defer s.subWG.Done()
	s.evictOldJobsLocked()
	s.mu.Unlock()

	if err := s.persistSubmitted(j); err != nil {
		// No durable record exists (the append failed), so withdrawing
		// leaves nothing to resurrect.
		s.withdraw(j, fmt.Errorf("service: persist submission: %w", err))
		return nil, false, fmt.Errorf("service: persist submission: %w", err)
	}

	s.mu.Lock()
	if s.closed {
		// Close ran while the record was being journaled; the workers may
		// already be gone, so the job must not land in the queue. The
		// withdrawal finishes the job as canceled, which also journals the
		// terminal record over the already-durable submission — otherwise
		// the next boot would resurrect a job the caller was told was
		// rejected.
		s.mu.Unlock()
		s.withdraw(j, ErrClosed)
		return nil, false, ErrClosed
	}
	// Re-check the quota and the cap: concurrent submitters journaled in
	// parallel, and both admissions must hold at enqueue time, not only at
	// the earlier pre-journal check.
	if s.cfg.TenantQueueQuota > 0 && s.tenantQueued[j.tenant] >= s.cfg.TenantQueueQuota {
		s.metrics.QuotaRejected++
		s.mu.Unlock()
		err := fmt.Errorf("%w (tenant %q, %d queued)", ErrQuotaExceeded, j.tenant, s.cfg.TenantQueueQuota)
		s.withdraw(j, err)
		return nil, false, err
	}
	var ok bool
	if shed, ok = s.admitQueueLocked(j.priority); !ok {
		s.mu.Unlock()
		s.finishShed(shed)
		err := fmt.Errorf("%w (%d jobs)", ErrQueueFull, s.cfg.QueueCap)
		s.withdraw(j, err)
		return nil, false, err
	}
	s.enqueueLocked(j)
	s.mu.Unlock()

	s.finishShed(shed)
	s.cond.Signal()
	return j, false, nil
}

// tokenBucket is one tenant's submit-rate limiter state.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// take refills the bucket for the elapsed time and consumes one token,
// reporting whether one was available.
func (b *tokenBucket) take(now time.Time, rate float64, burst int) bool {
	b.tokens = math.Min(float64(burst), b.tokens+now.Sub(b.last).Seconds()*rate)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// DefaultTenant is the tenant that jobs submitted with an empty
// JobSpec.Tenant are accounted under.
const DefaultTenant = "default"

// tenantName normalizes a spec's tenant field to its accounting key.
func tenantName(t string) string {
	if t == "" {
		return DefaultTenant
	}
	return t
}

// admitTenantLocked runs the per-tenant admission checks (token bucket,
// then queued-job quota) for one submission. Caller holds s.mu.
func (s *Service) admitTenantLocked(tenant string) error {
	if s.cfg.TenantRate > 0 {
		b := s.buckets[tenant]
		if b == nil {
			b = &tokenBucket{tokens: float64(s.cfg.TenantBurst), last: time.Now()}
			s.buckets[tenant] = b
		}
		if !b.take(time.Now(), s.cfg.TenantRate, s.cfg.TenantBurst) {
			s.metrics.RateLimited++
			return fmt.Errorf("%w (tenant %q, %g/sec burst %d)", ErrRateLimited, tenant, s.cfg.TenantRate, s.cfg.TenantBurst)
		}
	}
	if s.cfg.TenantQueueQuota > 0 && s.tenantQueued[tenant] >= s.cfg.TenantQueueQuota {
		s.metrics.QuotaRejected++
		return fmt.Errorf("%w (tenant %q, %d queued)", ErrQuotaExceeded, tenant, s.cfg.TenantQueueQuota)
	}
	return nil
}

// admitQueueLocked checks the global queue bound for an incoming job of
// priority prio, first shedding the lowest-priority queued job strictly
// below prio when the high-water mark is crossed. The returned shed job
// (nil when nothing was shed) must be finalized with finishShed AFTER s.mu
// is released; ok reports whether the queue has room. Caller holds s.mu.
func (s *Service) admitQueueLocked(prio Priority) (shed *Job, ok bool) {
	if s.cfg.ShedHighWater > 0 && len(s.queue) >= s.cfg.ShedHighWater {
		if v := s.shedVictimLocked(prio); v >= 0 {
			shed = heap.Remove(&s.queue, v).(*Job)
			s.noteDequeuedLocked(shed)
			s.metrics.ShedJobs++
		}
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.metrics.QueueFullRejected++
		return shed, false
	}
	return shed, true
}

// shedVictimLocked returns the heap index of the queued job load shedding
// would remove for an incoming job of priority prio — the lowest-priority
// queued job strictly below prio, youngest first within the class (the
// most recently submitted low-priority job has waited the least) — or -1
// when every queued job has priority >= prio. Caller holds s.mu.
func (s *Service) shedVictimLocked(prio Priority) int {
	victim := -1
	for i, q := range s.queue {
		if q.priority >= prio {
			continue
		}
		if victim < 0 || q.priority < s.queue[victim].priority ||
			(q.priority == s.queue[victim].priority && q.seq > s.queue[victim].seq) {
			victim = i
		}
	}
	return victim
}

// finishShed finalizes a job removed from the queue by the load shedder:
// canceled with the typed ErrShed cause, counted both as canceled and as
// shed. Must be called without s.mu held (finishing publishes events and
// journals the terminal record). A nil job is a no-op.
func (s *Service) finishShed(j *Job) {
	if j == nil {
		return
	}
	j.abort(ErrShed)
}

// enqueueLocked pushes a job into the priority queue, maintaining the
// per-tenant queued gauge and, for lane-routed jobs, the shape's arrival
// estimate. Caller holds s.mu.
func (s *Service) enqueueLocked(j *Job) {
	heap.Push(&s.queue, j)
	s.tenantQueued[j.tenant]++
	if j.backend == BackendLane {
		s.noteLaneArrivalLocked(j, time.Now())
	}
}

// noteDequeuedLocked maintains the per-tenant queued gauge after a job
// left the queue by any path (worker pop, lane scoop, cancel, shed,
// close). Caller holds s.mu.
func (s *Service) noteDequeuedLocked(j *Job) {
	if n := s.tenantQueued[j.tenant] - 1; n > 0 {
		s.tenantQueued[j.tenant] = n
	} else {
		delete(s.tenantQueued, j.tenant)
	}
}

// withdraw unregisters a job whose submission could not be completed: it
// disappears from the job table, the listing order and the idempotency
// index, and then finishes as canceled — a concurrent same-key submitter
// may already hold the job through idempotency reuse, and its Wait/Events
// must still reach a terminal state (the cancel closes done, publishes the
// terminal event, and journals the cancellation when a durable submitted
// record exists). The job was never queued, so no worker can hold it.
func (s *Service) withdraw(j *Job, cause error) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	if i := slices.Index(s.order, j.id); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
	}
	if j.idemKey != "" && s.idem[j.idemKey] == j.id {
		delete(s.idem, j.idemKey)
	}
	s.mu.Unlock()
	// Withdrawn jobs were registered (Submitted counted them), so the
	// cancel lands them in the canceled counter too — otherwise the
	// snapshot counters drift from the job-table states.
	j.abort(cause)
}

// persistSubmitted journals one accepted job (spec, key, resolved
// backend, fingerprint).
func (s *Service) persistSubmitted(j *Job) error {
	j.mu.Lock()
	spec := j.spec
	j.mu.Unlock()
	blob, err := encodeSpecBlob(spec)
	if err != nil {
		return err
	}
	return s.cfg.Store.Append(store.Record{
		Kind:    store.KindSubmitted,
		ID:      j.id,
		Key:     j.idemKey,
		Backend: j.backend,
		Fp:      j.fp,
		Spec:    blob,
	})
}

// persistFinished journals a terminal transition and drops the job's
// checkpoint snapshot. Restored jobs are journaled already, and shutdown
// cancellations are skipped on purpose: the job is still live as far as
// the journal is concerned and resumes on the next boot. A journal
// failure here cannot be returned (the in-memory transition already
// happened and must not be blocked), so it is reported loudly instead:
// the durable record then still says in-flight, and the next boot re-runs
// a job this process reported done/failed/canceled — for done jobs the
// result cache absorbs the rerun, for cancels it means a resurrected job
// the operator should know about.
func (s *Service) persistFinished(j *Job, state State, c change) {
	if s.cfg.Store == nil || c.restored || state == StateCanceled && errors.Is(c.err, ErrShutdown) {
		return
	}
	rec := store.Record{Kind: store.KindFinished, ID: j.id, State: string(state)}
	if c.res != nil {
		rec.Result, _ = json.Marshal(c.res)
	}
	if c.err != nil {
		rec.Err = c.err.Error()
	}
	if err := s.cfg.Store.Append(rec); err != nil {
		fmt.Fprintf(os.Stderr, "service: job %s: terminal %s record not journaled (job may resurrect on restart): %v\n", j.id, state, err)
	}
	_ = s.cfg.Store.DeleteCheckpoint(j.id)
}

// SubmitAll enqueues a batch of specs, failing fast on the first rejected
// spec (already-accepted jobs keep running).
func (s *Service) SubmitAll(ctx context.Context, specs []JobSpec) ([]*Job, error) {
	jobs := make([]*Job, 0, len(specs))
	for i, spec := range specs {
		j, err := s.Submit(ctx, spec)
		if err != nil {
			return jobs, fmt.Errorf("spec %d: %w", i, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// WaitAll blocks until every job finishes or ctx expires.
func WaitAll(ctx context.Context, jobs []*Job) error {
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}

// dropQueued removes a still-queued job from the priority queue (called by
// Job.Cancel), finalizing it as canceled without waiting for a worker to
// reach it — so canceled jobs stop occupying QueueCap slots.
func (s *Service) dropQueued(j *Job) {
	s.mu.Lock()
	removed := j.index >= 0 && j.index < len(s.queue) && s.queue[j.index] == j
	if removed {
		heap.Remove(&s.queue, j.index)
		s.noteDequeuedLocked(j)
	}
	s.mu.Unlock()
	if removed {
		j.abort(context.Cause(j.ctx))
	}
}

// evictOldJobsLocked drops the oldest terminal job records past the
// RetainJobs bound, so a long-running server's memory stays flat (each job
// retains its full input matrix). Queued and running jobs are never
// evicted. Caller holds s.mu.
func (s *Service) evictOldJobsLocked() {
	if s.cfg.RetainJobs < 0 || len(s.order) <= s.cfg.RetainJobs {
		return
	}
	excess := len(s.order) - s.cfg.RetainJobs
	kept := s.order[:0]
	for i, id := range s.order {
		if excess == 0 {
			// Terminal jobs cluster at the front (live ones are recent),
			// so the scan typically stops after O(evicted) entries.
			kept = append(kept, s.order[i:]...)
			break
		}
		if !s.jobs[id].State().terminal() {
			kept = append(kept, id)
			continue
		}
		if k := s.jobs[id].idemKey; k != "" {
			delete(s.idem, k)
		}
		delete(s.jobs, id)
		excess--
	}
	s.order = kept
}

// Job looks a job up by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every tracked job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// maxPageLimit caps one listing page.
const maxPageLimit = 500

// JobsPage returns up to limit tracked jobs in submission order, starting
// after the job named by cursor ("" starts from the oldest retained job;
// limit <= 0 selects 100, capped at 500). The returned cursor resumes the
// listing — "" once it is exhausted. A cursor pointing past the newest job
// (or at an already-evicted one) yields an empty page, not an error;
// cursors are job IDs, and anything else is rejected with a SpecError.
func (s *Service) JobsPage(cursor string, limit int) ([]*Job, string, error) {
	if limit <= 0 {
		limit = 100
	}
	if limit > maxPageLimit {
		limit = maxPageLimit
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	after := uint64(0)
	if cursor != "" {
		// A retained job resolves by table lookup (its live seq is exact even
		// when recovery or adoption renumbered the ID's tail); an evicted or
		// foreign ID falls back to its numeric tail, which on this node's ID
		// shape still orders correctly.
		if j, ok := s.jobs[cursor]; ok {
			after = j.seq
		} else if n, ok := seqOfID(cursor); ok {
			after = n
		} else {
			return nil, "", specErrf("cursor", "malformed cursor %q (want a job ID)", cursor)
		}
	}
	// s.order is ascending in seq (jobs are appended at submission), so the
	// resume point is a binary search away.
	lo, hi := 0, len(s.order)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.jobs[s.order[mid]].seq <= after {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	out := make([]*Job, 0, min(limit, len(s.order)-lo))
	for _, id := range s.order[lo:] {
		if len(out) == limit {
			return out, out[len(out)-1].id, nil
		}
		out = append(out, s.jobs[id])
	}
	return out, "", nil
}

// Close stops the workers. Queued jobs are canceled; running jobs are
// canceled too — interrupting their solve at the next sweep boundary —
// and awaited.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.stopCh)
	drained := make([]*Job, len(s.queue))
	copy(drained, s.queue)
	for _, j := range drained {
		j.index = -1 // the queue is gone; Cancel must not heap.Remove
	}
	s.queue = nil
	s.tenantQueued = make(map[string]int)
	// Jobs on loan to a peer settle like drained ones: canceled with
	// ErrShutdown (not journaled, so they resume on the next boot). The
	// thief's eventual CompleteLent finds the entry gone and discards.
	lent := make([]*Job, 0, len(s.lent))
	for id, e := range s.lent {
		lent = append(lent, e.job)
		delete(s.lent, id)
		s.inflight--
	}
	// Cancel everything still tracked: terminal jobs already released
	// their contexts (cancel is idempotent), running ones get interrupted.
	inflight := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		inflight = append(inflight, j)
	}
	s.mu.Unlock()

	for _, j := range append(drained, lent...) {
		j.abort(ErrShutdown)
	}
	for _, j := range inflight {
		j.cancel(ErrShutdown)
	}
	s.cond.Broadcast()
	s.wg.Wait()
	// In-flight durable submissions finish journaling before Close
	// returns, so a caller may close the Store immediately afterwards
	// without racing an append.
	s.subWG.Wait()
}

// worker pops the highest-priority job and runs it, until the service
// closes and the queue drains.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && len(s.queue) == 0 {
			s.cond.Wait()
		}
		if len(s.queue) == 0 { // closed and drained
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*Job)
		s.noteDequeuedLocked(j)
		s.claimLocked(j)
		s.mu.Unlock()

		// Every job a worker takes reaches a terminal transition, whose
		// metrics release its in-flight slot together with the terminal
		// count.
		if j.backend == BackendLane {
			s.executeLane(s.gatherLane(j))
		} else {
			s.execute(j)
		}
	}
}

// claimLocked counts a job a worker took off the queue as in flight until
// its terminal transition is counted. It is taken at dequeue, in the same
// critical section, so submitted == terminal + queued + in flight holds at
// every snapshot. Caller holds s.mu.
func (s *Service) claimLocked(j *Job) {
	j.inflight = true
	s.inflight++
}

// execute runs one dequeued job: cancellation check, cache lookup, then
// the solve between its start and terminal transitions.
func (s *Service) execute(j *Job) {
	if j.abortIfCanceled() || s.serveCached(j) || !j.apply(change{ev: evStart}) {
		return
	}
	res, err := s.solve(j)
	switch {
	case err != nil && j.abortIfCanceled():
	case err != nil:
		j.apply(change{ev: evFail, err: err})
	default:
		j.apply(change{ev: evDone, res: res})
	}
}

// solve runs the job's problem on its resolved backend.
func (s *Service) solve(j *Job) (*Result, error) {
	j.mu.Lock()
	spec := j.spec
	j.mu.Unlock()
	// Per-sweep progress feeds the job's event stream from node 0's
	// goroutine inside the solve.
	h := RunHooks{OnSweep: j.publishSweep, Resume: j.takeResume()}
	if !s.checkpoints(spec) {
		return RunSpec(j.ctx, spec, j.backend, h)
	}
	// Persist a resume point at sweep boundaries. The engine hook hands the
	// checkpoint to an asynchronous latest-wins writer, so the solve's
	// critical path never waits on an fsync; the writer drains before the
	// terminal record is journaled.
	cw := newCkptWriter(s, j.id, shapeOf(j.backend, spec))
	defer cw.close()
	h.OnCheckpoint = cw.offer
	h.CheckpointEvery = s.checkpointEvery(cw.key)
	j.setCheckpointEvery(h.CheckpointEvery)
	res, err := RunSpec(j.ctx, spec, j.backend, h)
	if err == nil && h.Resume == nil {
		s.ckpt.observeRun(cw.key, res)
	}
	return res, err
}

// sweepHook, when non-nil, runs at every sweep boundary of a job's solve,
// solo or on a lane, after the sweep event is published. It is a test seam
// for holding a run at a chosen boundary; tests set it only while no
// service is running.
var sweepHook func(*Job, engine.SweepProgress)

// RunHooks customizes one RunSpec execution. The zero value runs the spec
// with no progress reporting, no checkpointing and no resume point.
type RunHooks struct {
	// OnSweep, when non-nil, receives per-sweep progress from inside the
	// solve (node 0's goroutine); it must not block.
	OnSweep func(engine.SweepProgress)
	// OnCheckpoint, when non-nil, receives sweep-boundary engine
	// checkpoints every CheckpointEvery sweeps (0 = every sweep). Runs
	// that are not checkpointable (pipelined or fixed-sweep) never
	// checkpoint regardless.
	OnCheckpoint    func(*engine.Checkpoint)
	CheckpointEvery int
	// Resume, when non-nil, restores the solve from a prior checkpoint
	// instead of starting at sweep 0.
	Resume *engine.Checkpoint
}

// RunSpec executes one normalized spec on an explicitly resolved solo
// backend (BackendEmulated, BackendMulticore or BackendAnalytic — lane and
// auto selections must be resolved by the caller first) and returns the
// Result the service would produce for it. It is the solve half of the
// worker path with the queue and job bookkeeping stripped away, shared
// with the cluster layer's work-stealing executor: a thief node runs a
// stolen spec through RunSpec and ships the Result back to the victim.
// spec must already be withDefaults'd and validated (specs that traveled
// through SubmitKeyed or a cluster lend are).
func RunSpec(ctx context.Context, spec JobSpec, backend string, h RunHooks) (*Result, error) {
	fam, err := ordering.FamilyByName(spec.Ordering)
	if err != nil {
		return nil, err
	}
	mc := machine.Config{Ts: spec.Ts, Tw: spec.Tw, Tc: spec.Tc}
	if spec.OnePort {
		mc.Ports = machine.OnePort
	}
	var col *trace.Collector
	if backend == BackendEmulated && spec.WantTrace {
		col = trace.NewCollector()
		mc.OnEvent = col.Record
	}
	be, err := engine.NewBackend(backend, mc)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	start := time.Now()
	prob, err := engine.NewProblem(spec.Matrix, spec.Dim, h.Resume)
	if err != nil {
		return nil, err
	}
	prob.Family = fam
	prob.Opts = engine.Options{Tol: spec.Tol, MaxSweeps: spec.MaxSweeps}
	prob.FixedSweeps = spec.FixedSweeps
	prob.OnSweep = h.OnSweep
	prob.Pipelined = spec.Pipelined
	prob.PipelineQ = spec.PipelineQ
	prob.PipelineTs, prob.PipelineTw, prob.PipelinePorts = spec.Ts, spec.Tw, int(mc.Ports)
	if h.OnCheckpoint != nil && checkpointable(spec) {
		prob.OnCheckpoint = h.OnCheckpoint
		prob.CheckpointEvery = h.CheckpointEvery
	}
	out, stats, err := prob.RunContext(ctx, be)
	if err != nil {
		return nil, err
	}
	eig := out.Eigen()
	res := &Result{
		Backend:     backend,
		Values:      eig.Values,
		Sweeps:      eig.Sweeps,
		Converged:   eig.Converged,
		Interrupted: eig.Interrupted,
		Rotations:   eig.Rotations,
		FinalMaxRel: eig.FinalMaxRel,
		Makespan:    stats.Makespan,
		Messages:    stats.Messages,
		Elements:    stats.Elements,
		RawElements: stats.RawElements,
		WallMs:      float64(time.Since(start).Microseconds()) / 1000,
	}
	if col != nil {
		res.Trace = col.Summarize(spec.Dim)
	}
	return res, nil
}

// cacheEntry is one LRU slot of the result cache.
type cacheEntry struct {
	fp   uint64
	res  *Result
	size int64
}

// resultBytes estimates a cached result's payload footprint for the
// CacheMaxBytes budget: the struct itself plus the eigenvalue slice and the
// optional trace summary. An estimate is enough — the budget bounds memory
// order-of-magnitude, it is not an allocator account.
func resultBytes(r *Result) int64 {
	n := int64(160) // struct + map/list bookkeeping
	n += 8 * int64(len(r.Values))
	if r.Trace != nil {
		n += 96 + 8*int64(len(r.Trace.DimMessages)) + 8*int64(len(r.Trace.DimShare))
	}
	return n
}

// cacheLookup returns a deep copy of the cached result for a fingerprint,
// if any, refreshing the entry's LRU recency. Hits hand out copies — never
// the cached value itself — so a caller mutating its Result (the
// eigenvalue slice, the trace summary) cannot corrupt what later hits
// observe.
func (s *Service) cacheLookup(fp uint64) (*Result, bool) {
	if s.cfg.CacheCap < 0 {
		return nil, false
	}
	s.mu.Lock()
	elem, ok := s.cache[fp]
	var res *Result
	if ok {
		s.metrics.CacheHits++
		s.cacheList.MoveToFront(elem)
		res = elem.Value.(*cacheEntry).res
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return res.clone(), true
}

// cacheStore inserts a deep copy of the result (the solving job keeps its
// own, which it may hand to a mutating caller) at the front of the LRU,
// then evicts least-recently-used entries until both budgets hold: at most
// CacheCap entries, and (when CacheMaxBytes > 0) at most CacheMaxBytes of
// estimated payload.
func (s *Service) cacheStore(fp uint64, res *Result) {
	if s.cfg.CacheCap < 0 {
		return
	}
	res = res.clone()
	size := resultBytes(res)
	s.mu.Lock()
	defer s.mu.Unlock()
	if elem, exists := s.cache[fp]; exists {
		ent := elem.Value.(*cacheEntry)
		s.cacheBytes += size - ent.size
		ent.res, ent.size = res, size
		s.cacheList.MoveToFront(elem)
	} else {
		s.cache[fp] = s.cacheList.PushFront(&cacheEntry{fp: fp, res: res, size: size})
		s.cacheBytes += size
	}
	for s.cacheList.Len() > s.cfg.CacheCap ||
		(s.cfg.CacheMaxBytes > 0 && s.cacheBytes > s.cfg.CacheMaxBytes) {
		back := s.cacheList.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		s.cacheList.Remove(back)
		delete(s.cache, ent.fp)
		s.cacheBytes -= ent.size
		s.metrics.CacheEvictions++
	}
}
