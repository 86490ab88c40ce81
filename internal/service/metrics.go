package service

import (
	"sort"
	"time"

	"repro/internal/ordering"
)

// latencyWindow bounds the per-outcome wall-time sample buffer the
// percentile estimates are computed over (a ring of the most recent
// terminal transitions of that outcome).
const latencyWindow = 4096

// latencyBucketsMs are the upper bounds (milliseconds) of the per-outcome
// wall-time histograms, chosen to straddle the service's realistic range:
// sub-millisecond cache hits up to multi-second overloaded solves. The
// final +Inf bucket is implicit (it equals the observation count).
var latencyBucketsMs = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Outcome indexes for the per-outcome latency accounting.
const (
	outDone = iota
	outFailed
	outCanceled
	outcomeCount
)

// outcomeNames maps outcome indexes to their Snapshot.Latency keys.
var outcomeNames = [outcomeCount]string{"done", "failed", "canceled"}

// outcomeLatency accumulates one terminal outcome's wall-time stats: a
// bounded ring for percentile estimates plus an unbounded histogram for
// Prometheus export (cumulative counts are derived at snapshot time).
type outcomeLatency struct {
	count   int64
	sumMs   float64
	ring    []float64
	next    int
	buckets []int64 // per-bound (non-cumulative) counts, len(latencyBucketsMs)+1 with the overflow last
}

// record folds one wall time into the ring and the histogram.
func (o *outcomeLatency) record(wallMs float64) {
	o.count++
	o.sumMs += wallMs
	if o.buckets == nil {
		o.buckets = make([]int64, len(latencyBucketsMs)+1)
	}
	slot := len(latencyBucketsMs) // overflow (+Inf) bucket
	for i, le := range latencyBucketsMs {
		if wallMs <= le {
			slot = i
			break
		}
	}
	o.buckets[slot]++
	if len(o.ring) < latencyWindow {
		o.ring = append(o.ring, wallMs)
		return
	}
	o.ring[o.next] = wallMs
	o.next = (o.next + 1) % latencyWindow
}

// metrics is the service's internal counter set, guarded by Service.mu.
type metrics struct {
	start     time.Time
	submitted int64
	// completed / failed / canceled count THIS process's own terminal
	// transitions; terminal jobs restored from a durable journal at boot
	// land in the recovered* counters instead, so throughput and latency
	// always describe this boot's traffic (see the Snapshot field docs).
	recoveredDone     int64
	recoveredFailed   int64
	recoveredCanceled int64
	completed         int64
	failed            int64
	canceled          int64
	// Admission-control counters: submissions refused (quota / token
	// bucket / full queue) and queued jobs canceled by load shedding.
	quotaRejected     int64
	rateLimited       int64
	queueFullRejected int64
	shed              int64
	cacheHits         int64
	cacheEvictions    int64
	lanesDispatched   int64
	laneJobs          int64
	totalMakespan     float64
	// tunedJobs counts fresh completions executed under a tuned schedule;
	// tunedGain accumulates the analytic per-sweep makespan gain of those
	// jobs' plans times the sweeps they actually ran.
	tunedJobs int64
	tunedGain float64
	wall      [outcomeCount]outcomeLatency
}

// observe records one completed job's wall time and modeled makespan.
func (m *metrics) observe(wallMs, makespan float64) {
	m.completed++
	m.totalMakespan += makespan
	m.wall[outDone].record(wallMs)
}

// percentile returns the p-quantile (0..1) of the sorted sample set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

// LatencyStats is the JSON-ready per-outcome wall-time summary: percentile
// estimates over the recent-completion ring plus the cumulative histogram
// the Prometheus endpoint exports.
type LatencyStats struct {
	// Count and SumMs cover every observation of the outcome this boot
	// (not just the percentile ring's window).
	Count int64   `json:"count"`
	SumMs float64 `json:"sum_ms"`
	// P50Ms / P99Ms are computed over the most recent latencyWindow
	// observations of this outcome.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// BucketMs are the histogram upper bounds in milliseconds;
	// BucketCounts the cumulative observation counts at each bound
	// (Prometheus `le` semantics — Count is the implicit +Inf bucket).
	BucketMs     []float64 `json:"bucket_ms"`
	BucketCounts []int64   `json:"bucket_counts"`
}

// Snapshot is a JSON-ready view of the service's cumulative metrics.
type Snapshot struct {
	Workers   int     `json:"workers"`
	UptimeSec float64 `json:"uptime_sec"`

	// Submitted counts jobs this process accepted past admission (durable
	// submissions count at registration, so a journal-append failure that
	// withdraws the job still balances: it lands in Canceled). Completed,
	// Failed and Canceled count this process's own terminal transitions
	// only — terminal jobs restored from the journal at boot are reported
	// in the Recovered* counters instead, so a restart never inflates
	// JobsPerSec or the latency percentiles.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`

	// RecoveredDone / RecoveredFailed / RecoveredCanceled count terminal
	// jobs restored into the job table from the durable journal at boot.
	// They are deliberately NOT folded into Completed/Failed/Canceled: a
	// node that recovers 4000 done jobs at boot reports them here, not as
	// thousands of jobs/sec of fresh throughput.
	RecoveredDone     int64 `json:"recovered_done,omitempty"`
	RecoveredFailed   int64 `json:"recovered_failed,omitempty"`
	RecoveredCanceled int64 `json:"recovered_canceled,omitempty"`

	// Admission control: QuotaRejected counts submissions refused by a
	// per-tenant queue quota, RateLimited by a tenant's token bucket,
	// QueueFullRejected by the global QueueCap; ShedJobs counts queued
	// jobs canceled by priority-aware load shedding to admit higher-
	// priority work (they are also included in Canceled).
	QuotaRejected     int64 `json:"quota_rejected"`
	RateLimited       int64 `json:"rate_limited"`
	QueueFullRejected int64 `json:"queue_full_rejected"`
	ShedJobs          int64 `json:"shed_jobs"`

	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`

	// TenantQueued is the per-tenant queued-job gauge ("default" is the
	// empty tenant); tenants with nothing queued are omitted.
	TenantQueued map[string]int `json:"tenant_queued,omitempty"`

	CacheHits int64 `json:"cache_hits"`
	CacheSize int   `json:"cache_size"`
	// CacheEvictions counts results dropped by the LRU budgets (entry
	// count and byte bound); CacheBytes is the estimated payload footprint
	// of the live entries.
	CacheEvictions int64 `json:"cache_evictions"`
	CacheBytes     int64 `json:"cache_bytes"`

	// LanesDispatched counts batched-lane runs; LaneJobs the jobs they
	// carried; LaneFillRatio is LaneJobs over the capacity of the
	// dispatched lanes (LanesDispatched × LaneWidth) — 1.0 means every
	// lane ran full.
	LanesDispatched int64   `json:"lanes_dispatched"`
	LaneJobs        int64   `json:"lane_jobs"`
	LaneFillRatio   float64 `json:"lane_fill_ratio"`

	// WallP50Ms / WallP99Ms are percentiles of completed-job wall times
	// over the most recent latencyWindow completions (cache hits count as
	// near-zero-latency completions). They are the done-outcome view;
	// Latency carries every outcome, so failed and canceled work — exactly
	// what an overloaded service produces most — is never invisible to the
	// percentiles.
	WallP50Ms float64 `json:"wall_p50_ms"`
	WallP99Ms float64 `json:"wall_p99_ms"`

	// Latency maps terminal outcome ("done", "failed", "canceled") to its
	// wall-time stats. Done observations are the job's run time (cache
	// hits near zero); failed and canceled observations are the run time
	// up to the failure or interruption — a job canceled or shed before it
	// ever started records ~0.
	Latency map[string]LatencyStats `json:"latency"`

	// TotalModeledMakespan accumulates every completed job's virtual-time
	// makespan: the modeled cost of all work served, in machine time units
	// (recovered done jobs keep their journaled makespan contribution —
	// the work WAS executed, just by a previous boot).
	TotalModeledMakespan float64 `json:"total_modeled_makespan"`

	// CheckpointsSaved counts the sweep checkpoints this boot's running
	// jobs wrote to the durable store; CheckpointBytes is their total
	// image size. Under the by-cost cadence (Config.CheckpointEvery ==
	// 0) they show how often jobs actually checkpoint.
	CheckpointsSaved int64 `json:"checkpoints_saved"`
	CheckpointBytes  int64 `json:"checkpoint_bytes"`

	// JobsPerSec is this-boot completed jobs over this-boot uptime — the
	// batch-throughput headline. Jobs restored from the journal do not
	// move it.
	JobsPerSec float64 `json:"jobs_per_sec"`

	// ScheduleCache reports the process-wide sweep-schedule cache the
	// service's solves share (builds, hits, bypasses).
	ScheduleCache ordering.SweepCacheCounters `json:"schedule_cache"`

	// Tuned-schedule registry (DESIGN.md §14). TunedSchedules is the
	// number of installed per-shape plans; TunedHits / TunedMisses count
	// registry lookups by eligible submissions; TunedJobs counts fresh
	// completions that ran under a plan; TunedMakespanGain accumulates the
	// analytic makespan those plans saved versus the unpipelined baseline
	// (per-sweep gain × sweeps run, in machine time units). TunedShapeHits
	// / TunedShapeMisses break lookups down by shape key (bounded; an
	// "other" bucket absorbs overflow).
	TunedSchedules    int              `json:"tuned_schedules,omitempty"`
	TunedHits         int64            `json:"tuned_hits,omitempty"`
	TunedMisses       int64            `json:"tuned_misses,omitempty"`
	TunedJobs         int64            `json:"tuned_jobs,omitempty"`
	TunedMakespanGain float64          `json:"tuned_makespan_gain,omitempty"`
	TunedShapeHits    map[string]int64 `json:"tuned_shape_hits,omitempty"`
	TunedShapeMisses  map[string]int64 `json:"tuned_shape_misses,omitempty"`
}

// recordFinish folds one terminal transition into the metrics; Job.finish
// calls it exactly once per job. A worker-run job leaves the in-flight
// gauge in the same critical section, so the accounting invariant
// (submitted == terminal + queued + in flight) holds at every snapshot.
// A cache hit counts as a completion with its (near-zero) service
// latency, but its modeled makespan is not re-added: the aggregate tracks
// work actually executed. Failed and canceled jobs record their wall time
// in their outcome's latency stats, so overload outcomes show up in the
// percentiles they are meant to protect.
func (s *Service) recordFinish(j *Job, state State, res *Result, cacheHit bool, runMs float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.inflight {
		j.inflight = false
		s.inflight--
	}
	switch state {
	case StateDone:
		makespan := res.Makespan
		if cacheHit {
			makespan = 0
		}
		s.metrics.observe(runMs, makespan)
		if j.tuned != nil && !cacheHit {
			s.metrics.tunedJobs++
			s.metrics.tunedGain += j.tuned.Gain() * float64(res.Sweeps)
		}
	case StateFailed:
		s.metrics.failed++
		s.metrics.wall[outFailed].record(runMs)
	case StateCanceled:
		s.metrics.canceled++
		s.metrics.wall[outCanceled].record(runMs)
	}
}

// recordLane tallies one dispatched lane and the jobs it carried.
func (s *Service) recordLane(width int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.lanesDispatched++
	s.metrics.laneJobs += int64(width)
}

// latencySnapshotLocked copies one outcome's stats out from under s.mu;
// the ring is sorted by the caller after the lock is released.
func (m *metrics) latencyCopyLocked(o int) (LatencyStats, []float64) {
	w := &m.wall[o]
	st := LatencyStats{Count: w.count, SumMs: w.sumMs}
	if w.count > 0 {
		st.BucketMs = latencyBucketsMs
		st.BucketCounts = make([]int64, len(latencyBucketsMs))
		var cum int64
		for i := range latencyBucketsMs {
			cum += w.buckets[i]
			st.BucketCounts[i] = cum
		}
	}
	return st, append([]float64(nil), w.ring...)
}

// Metrics returns a snapshot of the service's counters. The latency
// samples are copied under the scheduler lock but sorted outside it, so a
// metrics scrape never stalls job scheduling for the sort.
func (s *Service) Metrics() Snapshot {
	var rings [outcomeCount][]float64
	lat := make(map[string]LatencyStats, outcomeCount)
	s.mu.Lock()
	up := time.Since(s.metrics.start).Seconds()
	snap := Snapshot{
		Workers:              s.cfg.Workers,
		UptimeSec:            up,
		Submitted:            s.metrics.submitted,
		Completed:            s.metrics.completed,
		Failed:               s.metrics.failed,
		Canceled:             s.metrics.canceled,
		RecoveredDone:        s.metrics.recoveredDone,
		RecoveredFailed:      s.metrics.recoveredFailed,
		RecoveredCanceled:    s.metrics.recoveredCanceled,
		QuotaRejected:        s.metrics.quotaRejected,
		RateLimited:          s.metrics.rateLimited,
		QueueFullRejected:    s.metrics.queueFullRejected,
		ShedJobs:             s.metrics.shed,
		QueueDepth:           len(s.queue),
		InFlight:             s.inflight,
		CacheHits:            s.metrics.cacheHits,
		CacheSize:            len(s.cache),
		CacheEvictions:       s.metrics.cacheEvictions,
		CacheBytes:           s.cacheBytes,
		LanesDispatched:      s.metrics.lanesDispatched,
		LaneJobs:             s.metrics.laneJobs,
		TotalModeledMakespan: s.metrics.totalMakespan,
		TunedJobs:            s.metrics.tunedJobs,
		TunedMakespanGain:    s.metrics.tunedGain,
	}
	if len(s.tenantQueued) > 0 {
		snap.TenantQueued = make(map[string]int, len(s.tenantQueued))
		for tenant, n := range s.tenantQueued {
			snap.TenantQueued[tenant] = n
		}
	}
	for o := 0; o < outcomeCount; o++ {
		lat[outcomeNames[o]], rings[o] = s.metrics.latencyCopyLocked(o)
	}
	if s.metrics.lanesDispatched > 0 && s.cfg.LaneWidth > 0 {
		snap.LaneFillRatio = float64(s.metrics.laneJobs) /
			float64(s.metrics.lanesDispatched*int64(s.cfg.LaneWidth))
	}
	s.mu.Unlock()
	for o := 0; o < outcomeCount; o++ {
		sort.Float64s(rings[o])
		st := lat[outcomeNames[o]]
		st.P50Ms = percentile(rings[o], 0.50)
		st.P99Ms = percentile(rings[o], 0.99)
		lat[outcomeNames[o]] = st
	}
	snap.Latency = lat
	snap.WallP50Ms = lat["done"].P50Ms
	snap.WallP99Ms = lat["done"].P99Ms
	snap.CheckpointsSaved, snap.CheckpointBytes = s.ckpt.counters()
	snap.ScheduleCache = ordering.SweepCacheStats()
	if s.tuner != nil {
		// The registry keeps its own lock; read it outside s.mu.
		ts := s.tuner.Stats()
		snap.TunedSchedules = ts.Schedules
		snap.TunedHits = ts.Hits
		snap.TunedMisses = ts.Misses
		snap.TunedShapeHits = ts.ShapeHits
		snap.TunedShapeMisses = ts.ShapeMisses
	}
	if up > 0 {
		snap.JobsPerSec = float64(snap.Completed) / up
	}
	return snap
}
