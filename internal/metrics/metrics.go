// Package metrics declares the service's metric set once. Snapshot is the
// body of GET /api/v2/metrics (client.Metrics aliases it), and its struct
// tags drive the Prometheus exposition of GET /metrics (WriteProm), so
// the two cannot drift apart: adding a metric is adding one tagged field.
//
//	prom:"NAME,TYPE[,LABEL=VALUE...]" help:"TEXT"
//	    a counter, gauge or histogram family; fields sharing a NAME share
//	    the family. A map field exports one series per key, in sorted
//	    order, and LABEL=* takes the key as its value.
//	prom:"LABEL,label"  the value labels every series of its struct
//	prom:"-"            JSON only
//
// A histogram's value struct tags its fields _count, _sum, _bucket
// (cumulative counts) and le (bounds). Untagged struct and *struct fields
// are descended into; a nil pointer exports nothing.
package metrics

// LatencyStats is one terminal outcome's wall-time summary: total count
// and sum, recent-window percentile estimates, and the cumulative
// histogram (BucketCounts at each BucketMs upper bound, Prometheus `le`
// semantics with Count as the implicit +Inf bucket).
type LatencyStats struct {
	// Count and SumMs cover every observation of the outcome this boot,
	// not just the percentile window.
	Count int64   `json:"count" prom:"_count"`
	SumMs float64 `json:"sum_ms" prom:"_sum"`
	// P50Ms / P99Ms are computed over the most recent observations of
	// this outcome (a bounded window).
	P50Ms        float64   `json:"p50_ms" prom:"-"`
	P99Ms        float64   `json:"p99_ms" prom:"-"`
	BucketMs     []float64 `json:"bucket_ms" prom:"le"`
	BucketCounts []int64   `json:"bucket_counts" prom:"_bucket"`
}

// Snapshot is the service's cumulative counter snapshot.
type Snapshot struct {
	Workers   int     `json:"workers" prom:"jacobi_workers,gauge" help:"Solve-pool size."`
	UptimeSec float64 `json:"uptime_sec" prom:"jacobi_uptime_seconds,gauge" help:"Seconds since this service process started."`

	// Submitted counts jobs this process accepted past admission (durable
	// submissions count at registration, so a journal-append failure that
	// withdraws the job still balances: it lands in Canceled). Completed,
	// Failed and Canceled count this process's own terminal transitions;
	// terminal jobs restored from a durable journal at boot land in the
	// Recovered* counters instead, so a restart never inflates JobsPerSec
	// or the latency percentiles.
	Submitted int64 `json:"submitted" prom:"jacobi_jobs_submitted_total,counter" help:"Jobs accepted past admission this boot."`
	Completed int64 `json:"completed" prom:"jacobi_jobs_completed_total,counter" help:"Jobs finished done this boot."`
	Failed    int64 `json:"failed" prom:"jacobi_jobs_failed_total,counter" help:"Jobs finished failed this boot."`
	Canceled  int64 `json:"canceled" prom:"jacobi_jobs_canceled_total,counter" help:"Jobs finished canceled this boot (includes shed jobs)."`

	RecoveredDone     int64 `json:"recovered_done,omitempty" prom:"jacobi_jobs_recovered_total,counter,outcome=done" help:"Terminal jobs restored from the durable journal at boot, by outcome."`
	RecoveredFailed   int64 `json:"recovered_failed,omitempty" prom:"jacobi_jobs_recovered_total,counter,outcome=failed"`
	RecoveredCanceled int64 `json:"recovered_canceled,omitempty" prom:"jacobi_jobs_recovered_total,counter,outcome=canceled"`

	// Admission control: submissions refused by a per-tenant quota, a
	// tenant's token bucket or the global queue cap, and queued jobs
	// canceled by priority-aware load shedding (ShedJobs is included in
	// Canceled).
	QuotaRejected     int64 `json:"quota_rejected" prom:"jacobi_admission_rejected_total,counter,reason=quota" help:"Submissions refused at admission, by reason."`
	RateLimited       int64 `json:"rate_limited" prom:"jacobi_admission_rejected_total,counter,reason=rate_limited"`
	QueueFullRejected int64 `json:"queue_full_rejected" prom:"jacobi_admission_rejected_total,counter,reason=queue_full"`
	ShedJobs          int64 `json:"shed_jobs" prom:"jacobi_jobs_shed_total,counter" help:"Queued jobs canceled by priority-aware load shedding."`

	QueueDepth int `json:"queue_depth" prom:"jacobi_queue_depth,gauge" help:"Jobs queued and not yet running."`
	InFlight   int `json:"in_flight" prom:"jacobi_inflight_jobs,gauge" help:"Jobs currently being solved."`

	// TenantQueued gauges queued jobs per tenant ("default" is the empty
	// tenant); tenants with nothing queued are omitted.
	TenantQueued map[string]int `json:"tenant_queued,omitempty" prom:"jacobi_tenant_queued,gauge,tenant=*" help:"Queued jobs per tenant."`

	CacheHits int64 `json:"cache_hits" prom:"jacobi_cache_hits_total,counter" help:"Result-cache hits."`
	CacheSize int   `json:"cache_size" prom:"jacobi_cache_entries,gauge" help:"Live result-cache entries."`
	// CacheEvictions / CacheBytes report the result cache's LRU pressure:
	// entries dropped by the budgets and the estimated live payload.
	CacheEvictions int64 `json:"cache_evictions" prom:"jacobi_cache_evictions_total,counter" help:"Result-cache entries dropped by the LRU budgets."`
	CacheBytes     int64 `json:"cache_bytes" prom:"jacobi_cache_bytes,gauge" help:"Estimated result-cache payload bytes."`

	// LanesDispatched / LaneJobs / LaneFillRatio report the batched solve
	// lane: runs dispatched, jobs they carried, and carried jobs over lane
	// capacity (1.0 = every lane ran full).
	LanesDispatched int64   `json:"lanes_dispatched" prom:"jacobi_lanes_dispatched_total,counter" help:"Batched-lane runs dispatched."`
	LaneJobs        int64   `json:"lane_jobs" prom:"jacobi_lane_jobs_total,counter" help:"Jobs carried by dispatched lanes."`
	LaneFillRatio   float64 `json:"lane_fill_ratio" prom:"jacobi_lane_fill_ratio,gauge" help:"Carried lane jobs over dispatched lane capacity."`

	// WallP50Ms / WallP99Ms are the done outcome's percentiles
	// (Latency["done"]); cache hits count as near-zero completions.
	WallP50Ms float64 `json:"wall_p50_ms" prom:"-"`
	WallP99Ms float64 `json:"wall_p99_ms" prom:"-"`

	// Latency maps terminal outcome ("done", "failed", "canceled") to its
	// wall-time stats, so failed and canceled work is visible too. Failed
	// and canceled observations are the run time up to the failure or
	// interruption; a job canceled before it started records ~0.
	Latency map[string]LatencyStats `json:"latency,omitempty" prom:"jacobi_job_wall_time_milliseconds,histogram,outcome=*" help:"Job wall time by terminal outcome, in milliseconds."`

	// TotalModeledMakespan accumulates every completed job's virtual-time
	// makespan in machine time units (recovered done jobs keep their
	// journaled contribution; cache hits add nothing). JobsPerSec is
	// this boot's completed jobs over its uptime.
	TotalModeledMakespan float64 `json:"total_modeled_makespan" prom:"jacobi_total_modeled_makespan,counter" help:"Aggregate modeled virtual-time makespan of executed work."`
	JobsPerSec           float64 `json:"jobs_per_sec" prom:"jacobi_jobs_per_sec,gauge" help:"This-boot completed jobs over this-boot uptime."`

	// CheckpointsSaved counts the sweep checkpoints running jobs wrote to
	// the durable store this boot; CheckpointBytes is their total image
	// size. Both stay zero without a store.
	CheckpointsSaved int64 `json:"checkpoints_saved" prom:"jacobi_checkpoints_saved_total,counter" help:"Sweep checkpoints running jobs wrote to the durable store this boot."`
	CheckpointBytes  int64 `json:"checkpoint_bytes" prom:"jacobi_checkpoint_bytes_total,counter" help:"Image bytes of the sweep checkpoints written this boot."`

	// ScheduleBuilds / ScheduleHits report the process-wide sweep-schedule
	// cache behind the service's solves.
	ScheduleBuilds int64 `json:"schedule_builds" prom:"jacobi_schedule_cache_builds_total,counter" help:"Sweep-schedule cache builds."`
	ScheduleHits   int64 `json:"schedule_hits" prom:"jacobi_schedule_cache_hits_total,counter" help:"Sweep-schedule cache hits."`

	// Cluster carries this node's routing/steal/replication counters when
	// the server runs in cluster mode; nil on a standalone serve.
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
}

// ClusterMetrics is one cluster node's view of its own sharding activity.
// Counters are per-node and cumulative for the process's life; every
// series carries the node="<id>" label.
type ClusterMetrics struct {
	NodeID string   `json:"node_id" prom:"node,label"`
	Peers  []string `json:"peers" prom:"-"`
	// Alive gauges how many peers the health prober currently sees alive
	// (self excluded).
	Alive int `json:"alive" prom:"jacobi_cluster_peers_alive,gauge" help:"Peers currently seen alive (self excluded)."`

	// Routing: submissions and job lookups served locally vs proxied to
	// the owning peer; ProxyErrors counts proxy attempts that fell back to
	// local handling on a transport error.
	RoutedLocal   int64 `json:"routed_local" prom:"jacobi_cluster_routed_local_total,counter" help:"Requests served by this node."`
	RoutedProxied int64 `json:"routed_proxied" prom:"jacobi_cluster_routed_proxied_total,counter" help:"Requests proxied to the owning peer."`
	ProxyErrors   int64 `json:"proxy_errors" prom:"jacobi_cluster_proxy_errors_total,counter" help:"Proxy attempts that fell back to local handling."`

	// Stealing, both directions: jobs this node took from peers
	// (JobsStolen, with StolenCompleted/StolenReturned their outcomes) and
	// jobs this node lent out (JobsLent).
	StealAttempts   int64 `json:"steal_attempts" prom:"jacobi_cluster_steal_attempts_total,counter" help:"Steal rounds initiated by this node."`
	JobsStolen      int64 `json:"jobs_stolen" prom:"jacobi_cluster_jobs_stolen_total,counter" help:"Jobs taken from peers."`
	StolenCompleted int64 `json:"stolen_completed" prom:"jacobi_cluster_stolen_completed_total,counter" help:"Stolen jobs completed and shipped back."`
	StolenReturned  int64 `json:"stolen_returned" prom:"jacobi_cluster_stolen_returned_total,counter" help:"Stolen jobs handed back unexecuted."`
	JobsLent        int64 `json:"jobs_lent" prom:"jacobi_cluster_jobs_lent_total,counter" help:"Queued jobs lent to stealing peers."`

	// Replication: journal records shipped to replicas and checkpoint
	// images forwarded; ShipErrors counts failed deliveries (the shipper
	// keeps going, so a dead replica never blocks submits).
	RecordsShipped  int64 `json:"records_shipped" prom:"jacobi_cluster_records_shipped_total,counter" help:"Journal records replicated to successors."`
	ShipErrors      int64 `json:"ship_errors" prom:"jacobi_cluster_ship_errors_total,counter" help:"Failed shipment deliveries."`
	CkptsShipped    int64 `json:"ckpts_shipped" prom:"jacobi_cluster_ckpts_shipped_total,counter" help:"Checkpoint images replicated."`
	CkptShipErrors  int64 `json:"ckpt_ship_errors" prom:"jacobi_cluster_ckpt_ship_errors_total,counter" help:"Failed checkpoint deliveries."`
	RecordsReceived int64 `json:"records_received" prom:"jacobi_cluster_records_received_total,counter" help:"Journal records received from peers."`

	// Failover: peer deaths this node observed, adoptions it performed,
	// and jobs those adoptions restored (terminal + live).
	PeerDeaths  int64 `json:"peer_deaths" prom:"jacobi_cluster_peer_deaths_total,counter" help:"Peers this node declared dead."`
	Adoptions   int64 `json:"adoptions" prom:"jacobi_cluster_adoptions_total,counter" help:"Dead-peer journals adopted."`
	AdoptedJobs int64 `json:"adopted_jobs" prom:"jacobi_cluster_adopted_jobs_total,counter" help:"Jobs restored by adoptions."`

	// MembershipMismatch counts health responses whose peer set disagreed
	// with this node's static configuration.
	MembershipMismatch int64 `json:"membership_mismatch" prom:"jacobi_cluster_membership_mismatch_total,counter" help:"Health responses with a divergent member set."`
}
