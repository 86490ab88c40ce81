package service

import (
	"sort"
	"time"

	"repro/internal/metrics"
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

// outcomeNames maps outcome indexes to their metrics.Snapshot.Latency keys.
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

// counters is the service's internal counter set, guarded by Service.mu:
// the embedded Snapshot holds this boot's cumulative counters under their
// wire names, and Metrics copies it and fills in the gauges.
type counters struct {
	start time.Time
	metrics.Snapshot
	wall [outcomeCount]outcomeLatency
}

// observe records one completed job's wall time and modeled makespan.
func (m *counters) observe(wallMs, makespan float64) {
	m.Completed++
	m.TotalModeledMakespan += makespan
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

// recordFinish folds one terminal transition into the metrics; the
// transition (Job.apply) calls it exactly once per job. A worker-run job
// leaves the in-flight gauge in the same critical section, so the
// accounting invariant (submitted == terminal + queued + in flight) holds
// at every snapshot. A cache hit counts as a completion with its
// (near-zero) service latency, but its modeled makespan is not re-added:
// the aggregate tracks work actually executed. Failed and canceled jobs
// record their wall time in their outcome's latency stats, so overload
// outcomes show up in the percentiles they are meant to protect.
//
// Jobs restored from a journal count under the recovered_* counters, not
// completed/failed/canceled: the this-boot counters feed jobs_per_sec
// (completions divided by this process's uptime), and folding a previous
// life's work into them would inflate the rate right after every restart.
// Their modeled makespan stays in the aggregate — that work really ran.
func (s *Service) recordFinish(j *Job, to State, c change, runMs float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.inflight {
		j.inflight = false
		s.inflight--
	}
	switch {
	case c.restored && to == StateDone:
		s.metrics.RecoveredDone++
		s.metrics.TotalModeledMakespan += c.res.Makespan
	case c.restored && to == StateFailed:
		s.metrics.RecoveredFailed++
	case c.restored:
		s.metrics.RecoveredCanceled++
	case to == StateDone:
		makespan := c.res.Makespan
		if c.cacheHit {
			makespan = 0
		}
		s.metrics.observe(runMs, makespan)
	case to == StateFailed:
		s.metrics.Failed++
		s.metrics.wall[outFailed].record(runMs)
	default:
		s.metrics.Canceled++
		s.metrics.wall[outCanceled].record(runMs)
	}
}

// recordLane tallies one dispatched lane and the jobs it carried.
func (s *Service) recordLane(width int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics.LanesDispatched++
	s.metrics.LaneJobs += int64(width)
}

// latencyCopyLocked copies one outcome's stats out from under s.mu; the
// ring is sorted by the caller after the lock is released.
func (m *counters) latencyCopyLocked(o int) (metrics.LatencyStats, []float64) {
	w := &m.wall[o]
	st := metrics.LatencyStats{Count: w.count, SumMs: w.sumMs}
	if w.count > 0 {
		// A copy: a caller writing to the snapshot must not move the
		// service's bucket bounds.
		st.BucketMs = append([]float64(nil), latencyBucketsMs...)
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
func (s *Service) Metrics() metrics.Snapshot {
	var rings [outcomeCount][]float64
	lat := make(map[string]metrics.LatencyStats, outcomeCount)
	s.mu.Lock()
	snap := s.metrics.Snapshot
	snap.UptimeSec = time.Since(s.metrics.start).Seconds()
	snap.Workers = s.cfg.Workers
	snap.QueueDepth = len(s.queue)
	snap.InFlight = s.inflight
	snap.CacheSize = len(s.cache)
	snap.CacheBytes = s.cacheBytes
	if len(s.tenantQueued) > 0 {
		snap.TenantQueued = make(map[string]int, len(s.tenantQueued))
		for tenant, n := range s.tenantQueued {
			snap.TenantQueued[tenant] = n
		}
	}
	for o := 0; o < outcomeCount; o++ {
		lat[outcomeNames[o]], rings[o] = s.metrics.latencyCopyLocked(o)
	}
	if snap.LanesDispatched > 0 && s.cfg.LaneWidth > 0 {
		snap.LaneFillRatio = float64(snap.LaneJobs) / float64(snap.LanesDispatched*int64(s.cfg.LaneWidth))
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
	sc := ordering.SweepCacheStats()
	snap.ScheduleBuilds, snap.ScheduleHits = sc.Builds, sc.Hits
	if snap.UptimeSec > 0 {
		snap.JobsPerSec = float64(snap.Completed) / snap.UptimeSec
	}
	return snap
}
