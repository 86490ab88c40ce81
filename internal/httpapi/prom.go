package httpapi

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/service"
)

// Prometheus text-format (0.0.4) exposition of the service's metrics
// snapshot: every Snapshot counter and gauge, plus per-outcome wall-time
// histograms with cumulative `le` buckets. The endpoint renders one
// consistent service.Snapshot per scrape, so the exported values always
// agree with GET /api/v2/metrics taken at the same instant.

// promHandler serves GET /metrics.
func promHandler(s *service.Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(renderProm(s.Metrics())))
	}
}

// renderProm formats one metrics snapshot as Prometheus exposition text.
func renderProm(m service.Snapshot) string {
	var b strings.Builder

	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, promFloat(v))
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promFloat(v))
	}

	counter("jacobi_jobs_submitted_total", "Jobs accepted past admission this boot.", float64(m.Submitted))
	counter("jacobi_jobs_completed_total", "Jobs finished done this boot.", float64(m.Completed))
	counter("jacobi_jobs_failed_total", "Jobs finished failed this boot.", float64(m.Failed))
	counter("jacobi_jobs_canceled_total", "Jobs finished canceled this boot (includes shed jobs).", float64(m.Canceled))

	fmt.Fprintf(&b, "# HELP jacobi_jobs_recovered_total Terminal jobs restored from the durable journal at boot, by outcome.\n# TYPE jacobi_jobs_recovered_total counter\n")
	fmt.Fprintf(&b, "jacobi_jobs_recovered_total{outcome=\"done\"} %d\n", m.RecoveredDone)
	fmt.Fprintf(&b, "jacobi_jobs_recovered_total{outcome=\"failed\"} %d\n", m.RecoveredFailed)
	fmt.Fprintf(&b, "jacobi_jobs_recovered_total{outcome=\"canceled\"} %d\n", m.RecoveredCanceled)

	fmt.Fprintf(&b, "# HELP jacobi_admission_rejected_total Submissions refused at admission, by reason.\n# TYPE jacobi_admission_rejected_total counter\n")
	fmt.Fprintf(&b, "jacobi_admission_rejected_total{reason=\"quota\"} %d\n", m.QuotaRejected)
	fmt.Fprintf(&b, "jacobi_admission_rejected_total{reason=\"rate_limited\"} %d\n", m.RateLimited)
	fmt.Fprintf(&b, "jacobi_admission_rejected_total{reason=\"queue_full\"} %d\n", m.QueueFullRejected)

	counter("jacobi_jobs_shed_total", "Queued jobs canceled by priority-aware load shedding.", float64(m.ShedJobs))

	gauge("jacobi_workers", "Solve-pool size.", float64(m.Workers))
	gauge("jacobi_uptime_seconds", "Seconds since this service process started.", m.UptimeSec)
	gauge("jacobi_queue_depth", "Jobs queued and not yet running.", float64(m.QueueDepth))
	gauge("jacobi_inflight_jobs", "Jobs currently being solved.", float64(m.InFlight))

	if len(m.TenantQueued) > 0 {
		fmt.Fprintf(&b, "# HELP jacobi_tenant_queued Queued jobs per tenant.\n# TYPE jacobi_tenant_queued gauge\n")
		tenants := make([]string, 0, len(m.TenantQueued))
		for t := range m.TenantQueued {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		for _, t := range tenants {
			// Go's %q escaping (backslash, quote, newline) matches the text
			// format's label-value escaping.
			fmt.Fprintf(&b, "jacobi_tenant_queued{tenant=%q} %d\n", t, m.TenantQueued[t])
		}
	}

	counter("jacobi_cache_hits_total", "Result-cache hits.", float64(m.CacheHits))
	counter("jacobi_cache_evictions_total", "Result-cache entries dropped by the LRU budgets.", float64(m.CacheEvictions))
	gauge("jacobi_cache_entries", "Live result-cache entries.", float64(m.CacheSize))
	gauge("jacobi_cache_bytes", "Estimated result-cache payload bytes.", float64(m.CacheBytes))

	counter("jacobi_lanes_dispatched_total", "Batched-lane runs dispatched.", float64(m.LanesDispatched))
	counter("jacobi_lane_jobs_total", "Jobs carried by dispatched lanes.", float64(m.LaneJobs))
	gauge("jacobi_lane_fill_ratio", "Carried lane jobs over dispatched lane capacity.", m.LaneFillRatio)

	counter("jacobi_schedule_cache_builds_total", "Sweep-schedule cache builds.", float64(m.ScheduleCache.Builds))
	counter("jacobi_schedule_cache_hits_total", "Sweep-schedule cache hits.", float64(m.ScheduleCache.Hits))

	gauge("jacobi_tuned_schedules", "Tuned execution plans installed in the registry.", float64(m.TunedSchedules))
	counter("jacobi_tuned_hits_total", "Tuned-registry lookups that found a plan.", float64(m.TunedHits))
	counter("jacobi_tuned_misses_total", "Tuned-registry lookups that found nothing.", float64(m.TunedMisses))
	counter("jacobi_tuned_jobs_total", "Fresh completions executed under a tuned plan.", float64(m.TunedJobs))
	counter("jacobi_tuned_makespan_gain_total", "Analytic makespan saved by tuned plans versus the unpipelined baseline, in machine time units.", m.TunedMakespanGain)
	if len(m.TunedShapeHits) > 0 || len(m.TunedShapeMisses) > 0 {
		fmt.Fprintf(&b, "# HELP jacobi_tuned_lookups_total Tuned-registry lookups by job shape and outcome.\n# TYPE jacobi_tuned_lookups_total counter\n")
		for _, series := range []struct {
			outcome string
			by      map[string]int64
		}{{"hit", m.TunedShapeHits}, {"miss", m.TunedShapeMisses}} {
			shapes := make([]string, 0, len(series.by))
			for k := range series.by {
				shapes = append(shapes, k)
			}
			sort.Strings(shapes)
			for _, k := range shapes {
				fmt.Fprintf(&b, "jacobi_tuned_lookups_total{shape=%q,outcome=%q} %d\n", k, series.outcome, series.by[k])
			}
		}
	}

	counter("jacobi_checkpoints_saved_total", "Sweep checkpoints running jobs wrote to the durable store this boot.", float64(m.CheckpointsSaved))
	counter("jacobi_checkpoint_bytes_total", "Image bytes of the sweep checkpoints written this boot.", float64(m.CheckpointBytes))

	counter("jacobi_total_modeled_makespan", "Aggregate modeled virtual-time makespan of executed work.", m.TotalModeledMakespan)
	gauge("jacobi_jobs_per_sec", "This-boot completed jobs over this-boot uptime.", m.JobsPerSec)

	fmt.Fprintf(&b, "# HELP jacobi_job_wall_time_milliseconds Job wall time by terminal outcome, in milliseconds.\n# TYPE jacobi_job_wall_time_milliseconds histogram\n")
	outcomes := make([]string, 0, len(m.Latency))
	for o := range m.Latency {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		st := m.Latency[o]
		for i, le := range st.BucketMs {
			fmt.Fprintf(&b, "jacobi_job_wall_time_milliseconds_bucket{outcome=%q,le=%q} %d\n", o, promFloat(le), st.BucketCounts[i])
		}
		fmt.Fprintf(&b, "jacobi_job_wall_time_milliseconds_bucket{outcome=%q,le=\"+Inf\"} %d\n", o, st.Count)
		fmt.Fprintf(&b, "jacobi_job_wall_time_milliseconds_sum{outcome=%q} %s\n", o, promFloat(st.SumMs))
		fmt.Fprintf(&b, "jacobi_job_wall_time_milliseconds_count{outcome=%q} %d\n", o, st.Count)
	}

	return b.String()
}

// promFloat formats a sample value: integral values render without an
// exponent or trailing zeros, everything else as shortest round-trip.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
