package service

import (
	"container/heap"
	"context"
	"testing"
	"time"

	"repro/internal/engine"
)

// laneConfig is the common test config: lanes enabled, a single worker so
// the gather stage (not worker parallelism) groups the jobs, and a window
// long enough to be robust under CI load.
func laneConfig(width int) Config {
	return Config{Workers: 1, LaneWidth: width, LaneWindow: 200 * time.Millisecond}
}

// TestLaneGroupsSameShapeJobs: same-shape small jobs submitted together are
// solved on one batched lane — every result reports the lane backend, the
// metrics count one dispatched lane carrying all jobs, and each job's
// eigenvalues match the sequential reference within the fused tolerance.
func TestLaneGroupsSameShapeJobs(t *testing.T) {
	const K = 4
	s := New(laneConfig(K))
	defer s.Close()

	var specs []JobSpec
	for i := 0; i < K; i++ {
		specs = append(specs, JobSpec{Matrix: randSym(32, int64(500+i)), Dim: 2})
	}
	jobs, err := s.SubmitAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := WaitAll(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		res, err := j.Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Backend != BackendLane {
			t.Errorf("job %d ran on %q, want %q", i, res.Backend, BackendLane)
		}
		if !res.Converged {
			t.Errorf("job %d did not converge", i)
		}
		want := sequentialValues(t, specs[i].withDefaults())
		for k := range want {
			if d := res.Values[k] - want[k]; d > 1e-8 || d < -1e-8 {
				t.Fatalf("job %d eigenvalue %d drift %g", i, k, d)
			}
		}
	}
	m := s.Metrics()
	if m.LanesDispatched != 1 || m.LaneJobs != int64(K) {
		t.Errorf("metrics: %d lanes / %d lane jobs, want 1/%d", m.LanesDispatched, m.LaneJobs, K)
	}
	if m.LaneFillRatio != 1.0 {
		t.Errorf("fill ratio %g, want 1.0 (lane ran full)", m.LaneFillRatio)
	}
}

// TestLaneLoneJobReroutesPromptly pins the starvation fix: a lone small
// auto-routed job whose gather window closes without lane mates re-checks
// its shape against MulticoreThreshold and solves on a solo backend —
// promptly, and on "emulated" (it is below the threshold), not on a
// width-1 lane.
func TestLaneLoneJobReroutesPromptly(t *testing.T) {
	cfg := laneConfig(8)
	cfg.LaneWindow = 5 * time.Millisecond
	s := New(cfg)
	defer s.Close()

	j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(24, 1), Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j.Backend() != BackendLane {
		t.Fatalf("small auto job routed to %q at submission, want %q", j.Backend(), BackendLane)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("lone lane job starved: %v", err)
	}
	if res.Backend != BackendEmulated {
		t.Errorf("lone job ran on %q, want re-route to %q", res.Backend, BackendEmulated)
	}
	if m := s.Metrics(); m.LanesDispatched != 0 {
		t.Errorf("%d lanes dispatched for a rerouted lone job, want 0", m.LanesDispatched)
	}
}

// TestLaneAutoSelection: the submission-time routing split — big jobs to
// multicore, small to the lane, and lane routing off entirely when lanes
// are disabled or the job needs the virtual clock.
func TestLaneAutoSelection(t *testing.T) {
	small := JobSpec{Matrix: randSym(24, 2), Dim: 1}.withDefaults()
	big := JobSpec{Matrix: randSym(128, 3), Dim: 1}.withDefaults()
	if got := small.selectBackend(64, 8); got != BackendLane {
		t.Errorf("small with lanes: %q, want lane", got)
	}
	if got := big.selectBackend(64, 8); got != BackendMulticore {
		t.Errorf("big with lanes: %q, want multicore", got)
	}
	if got := small.selectBackend(64, 0); got != BackendEmulated {
		t.Errorf("small without lanes: %q, want emulated", got)
	}
	if got := small.selectBackend(-1, 8); got != BackendEmulated {
		t.Errorf("small with multicore disabled: %q, want emulated (lane needs the threshold split)", got)
	}
	traced := small
	traced.WantTrace = true
	if got := traced.selectBackend(64, 8); got != BackendEmulated {
		t.Errorf("traced with lanes: %q, want emulated", got)
	}
	fixed := small
	fixed.FixedSweeps = 2
	if got := fixed.selectBackend(64, 8); got != BackendEmulated {
		t.Errorf("fixed-sweeps with lanes: %q, want emulated (cost model)", got)
	}
}

// TestLaneExplicitBackend: an explicitly lane-addressed job runs on the
// lane even alone (width-1), and invalid lane combinations are rejected at
// validation.
func TestLaneExplicitBackend(t *testing.T) {
	s := New(laneConfig(4))
	defer s.Close()

	j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 4), Dim: 1, Backend: BackendLane})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != BackendLane {
		t.Errorf("explicit lane job ran on %q", res.Backend)
	}
	if m := s.Metrics(); m.LanesDispatched != 1 || m.LaneJobs != 1 {
		t.Errorf("metrics: %d lanes / %d jobs, want a width-1 lane", m.LanesDispatched, m.LaneJobs)
	}

	bad := JobSpec{Matrix: randSym(16, 5), Dim: 1, Backend: BackendLane, Pipelined: true}
	if _, err := s.Submit(context.Background(), bad); err == nil {
		t.Error("pipelined lane job accepted")
	}
	traced := JobSpec{Matrix: randSym(16, 6), Dim: 1, Backend: BackendLane, WantTrace: true}
	if _, err := s.Submit(context.Background(), traced); err == nil {
		t.Error("traced lane job accepted")
	}
}

// TestLaneCanceledMemberFinishesCanceled: a lane member canceled before
// the lane runs terminates canceled; its lane mates still solve.
func TestLaneCanceledMemberFinishesCanceled(t *testing.T) {
	s := New(laneConfig(3))
	defer s.Close()

	ctx := context.Background()
	canceledCtx, cancel := context.WithCancel(ctx)
	cancel()

	var jobs []*Job
	for i := 0; i < 3; i++ {
		c := ctx
		if i == 1 {
			c = canceledCtx
		}
		j, err := s.Submit(c, JobSpec{Matrix: randSym(20, int64(700+i)), Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	wctx, wcancel := context.WithTimeout(ctx, time.Minute)
	defer wcancel()
	_ = WaitAll(wctx, jobs)
	if st := jobs[1].State(); st != StateCanceled {
		t.Errorf("canceled member state %q, want canceled", st)
	}
	for _, i := range []int{0, 2} {
		res, err := jobs[i].Result()
		if err != nil {
			t.Fatalf("lane mate %d: %v", i, err)
		}
		if res.Backend != BackendLane || !res.Converged {
			t.Errorf("lane mate %d: backend %q converged %v", i, res.Backend, res.Converged)
		}
	}
}

// TestLaneCacheHit: a lane job whose fingerprint is already cached resolves
// as a hit without re-running the lane.
func TestLaneCacheHit(t *testing.T) {
	s := New(laneConfig(4))
	defer s.Close()

	spec := JobSpec{Matrix: randSym(28, 8), Dim: 1}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Two identical jobs share a lane (and a fingerprint); the lane run
	// fills the cache under the lane-keyed fingerprint.
	first, err := s.SubmitAll(context.Background(), []JobSpec{spec, spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(ctx, first); err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Status().CacheHit {
		t.Error("identical resubmission missed the cache")
	}
	if res.Backend != BackendLane {
		t.Errorf("cached result backend %q, want %q", res.Backend, BackendLane)
	}
	if m := s.Metrics(); m.CacheHits != 1 {
		t.Errorf("cache hits %d, want 1", m.CacheHits)
	}
}

// TestLaneMatePriorityOrder: when more mates are queued than lane slots,
// the gather stage scoops them in queue order — priority first, FIFO
// within a class — directly on the heap helper.
func TestLaneMatePriorityOrder(t *testing.T) {
	s := &Service{cfg: Config{LaneWidth: 2}.withDefaults()}
	mk := func(seq uint64, pri Priority, n int) *Job {
		spec := JobSpec{Dim: 1, Ordering: "pbr"}
		return &Job{
			backend:  BackendLane,
			n:        n,
			spec:     spec,
			shape:    laneShapeOf(n, spec),
			priority: pri,
			seq:      seq,
			index:    -1,
		}
	}
	leader := mk(1, PriorityNormal, 32)
	low := mk(2, PriorityLow, 32)
	normal := mk(3, PriorityNormal, 32)
	high := mk(4, PriorityHigh, 32)
	otherShape := mk(5, PriorityHigh, 64)
	for _, j := range []*Job{low, normal, high, otherShape} {
		heap.Push(&s.queue, j)
	}
	if got := s.popLaneMateLocked(leader); got != high {
		t.Fatalf("first mate seq %d, want the high-priority job", got.seq)
	}
	if got := s.popLaneMateLocked(leader); got != normal {
		t.Fatalf("second mate seq %d, want the older normal-priority job", got.seq)
	}
	if got := s.popLaneMateLocked(leader); got != low {
		t.Fatalf("third mate seq %d, want the low-priority job", got.seq)
	}
	if got := s.popLaneMateLocked(leader); got != nil {
		t.Fatalf("scooped %d: different-shape jobs must never join the lane", got.seq)
	}
	if len(s.queue) != 1 || s.queue[0] != otherShape {
		t.Fatal("different-shape job should remain queued")
	}
}

// TestCacheLRUEntryBudget: the result cache evicts least-recently-used
// entries past CacheCap — a looked-up entry survives, the cold one goes —
// and counts evictions.
func TestCacheLRUEntryBudget(t *testing.T) {
	s := New(Config{Workers: 1, CacheCap: 2})
	defer s.Close()

	resA := &Result{Backend: "emulated", Values: []float64{1}}
	s.cacheStore(1, resA)
	s.cacheStore(2, &Result{Backend: "emulated", Values: []float64{2}})
	if _, ok := s.cacheLookup(1); !ok { // refresh 1 → 2 becomes LRU
		t.Fatal("entry 1 missing before eviction")
	}
	s.cacheStore(3, &Result{Backend: "emulated", Values: []float64{3}})
	if _, ok := s.cacheLookup(1); !ok {
		t.Error("recently-used entry 1 evicted")
	}
	if _, ok := s.cacheLookup(2); ok {
		t.Error("LRU entry 2 survived past CacheCap")
	}
	if _, ok := s.cacheLookup(3); !ok {
		t.Error("fresh entry 3 missing")
	}
	if m := s.Metrics(); m.CacheEvictions != 1 {
		t.Errorf("evictions %d, want 1", m.CacheEvictions)
	}
}

// TestCacheLRUByteBudget: CacheMaxBytes bounds the estimated payload — the
// LRU tail is dropped until the estimate fits, even with entry slots to
// spare — and the snapshot reports the live byte estimate.
func TestCacheLRUByteBudget(t *testing.T) {
	one := &Result{Backend: "emulated", Values: make([]float64, 100)}
	per := resultBytes(one)
	s := New(Config{Workers: 1, CacheCap: 100, CacheMaxBytes: 2 * per})
	defer s.Close()

	s.cacheStore(1, one)
	s.cacheStore(2, one)
	s.cacheStore(3, one)
	m := s.Metrics()
	if m.CacheSize != 2 {
		t.Errorf("cache holds %d entries, want 2 under the byte budget", m.CacheSize)
	}
	if m.CacheBytes > 2*per {
		t.Errorf("cache bytes %d exceed budget %d", m.CacheBytes, 2*per)
	}
	if m.CacheEvictions != 1 {
		t.Errorf("evictions %d, want 1", m.CacheEvictions)
	}
	if _, ok := s.cacheLookup(1); ok {
		t.Error("oldest entry survived the byte budget")
	}
}

// TestLaneRecoveryAcrossConfigChange: lane-routed jobs journaled by a
// lane-enabled service recover and complete on a service restarted WITHOUT
// lanes — queued ones re-resolve to a solo backend, and an in-flight one
// resumes from its checkpoint on the solo path (the lane engine never
// restores mid-solve state).
func TestLaneRecoveryAcrossConfigChange(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st, LaneWidth: 4, LaneWindow: time.Millisecond})

	// Occupy the single worker with a slow lane-routed job (it reroutes to
	// emulated when its window closes alone, then checkpoints each sweep).
	slow := JobSpec{Matrix: randSym(24, 20), Dim: 1, Tol: 1e-300, MaxSweeps: 5000}
	blocker, err := s.Submit(context.Background(), slow)
	if err != nil {
		t.Fatal(err)
	}
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(20, int64(21+i)), Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		if j.Backend() != BackendLane {
			t.Fatalf("job routed to %q, want lane", j.Backend())
		}
		queued = append(queued, j)
	}
	time.Sleep(50 * time.Millisecond) // let the blocker start and checkpoint
	s.Close()
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Workers: 2, Store: st2}) // lanes disabled
	defer s2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, old := range queued {
		j, ok := s2.Job(old.ID())
		if !ok {
			t.Fatalf("queued lane job %s not recovered", old.ID())
		}
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("recovered lane job %s: %v", old.ID(), err)
		}
		if res.Backend != BackendEmulated {
			t.Errorf("recovered job %s ran on %q, want solo reroute to %q", old.ID(), res.Backend, BackendEmulated)
		}
	}
	rb, ok := s2.Job(blocker.ID())
	if !ok {
		t.Fatalf("in-flight job %s not recovered", blocker.ID())
	}
	if rb.Status().ResumedFromSweep == 0 {
		t.Errorf("in-flight lane-routed job did not resume from a checkpoint")
	}
	rb.Cancel()
}

// TestArrivalGapEstimator drives one shape's inter-arrival estimate with
// an injected clock: the first arrival leaves no estimate (a leader waits
// out its window, as without one), each sample is clamped to twice the
// window, the EWMA moves 1/8 of the way to each new sample, a gap longer
// than what is left of the window stops the wait, and a burst keeps a
// leader waiting only until the shape goes quiet.
func TestArrivalGapEstimator(t *testing.T) {
	const window = 2 * time.Millisecond
	t0 := time.Unix(1000, 0)
	waitEnd := func(g arrivalGap, now time.Time, remain time.Duration) time.Duration {
		return g.waitEnd(now, now.Add(remain), window).Sub(now)
	}
	var g arrivalGap
	if got := waitEnd(g, t0, window); got != window {
		t.Errorf("no estimate yet: waits %v, want the whole window", got)
	}
	g.observe(t0, window)
	if got := waitEnd(g, t0, window); g.known || got != window {
		t.Error("a first arrival must leave no estimate")
	}
	now := t0.Add(time.Second)
	g.observe(now, window) // clamped to 2×window
	if !g.known || g.gap != 2*window {
		t.Fatalf("gap %v after a 1s sample, want the clamp %v", g.gap, 2*window)
	}
	if got := waitEnd(g, now, window); got > 0 {
		t.Errorf("estimated gap 4ms, 2ms left: waits %v, want none", got)
	}
	if got := waitEnd(g, now, 2*window); got != 2*window {
		t.Errorf("estimated gap 4ms, 4ms left: waits %v, want all of it", got)
	}
	now = now.Add(100 * time.Microsecond)
	g.observe(now, window)
	if want := 2*window + (100*time.Microsecond-2*window)/8; g.gap != want {
		t.Errorf("gap %v after a 100µs sample, want %v", g.gap, want)
	}
	// A back-to-back burst pulls the estimate under the window, and a
	// leader waits while the burst lasts: until the shape has been quiet
	// for a sixteenth of the window (four gaps are shorter here).
	for i := 0; i < 64; i++ {
		now = now.Add(10 * time.Microsecond)
		g.observe(now, window)
	}
	if g.gap > 20*time.Microsecond {
		t.Fatalf("gap %v after a 10µs burst", g.gap)
	}
	quiet := window / 16
	if got := waitEnd(g, now, window); got != quiet {
		t.Errorf("mid-burst: waits %v, want the quiet spell %v", got, quiet)
	}
	if got := waitEnd(g, now.Add(quiet/2), window); got != quiet/2 {
		t.Errorf("half a quiet spell after the last arrival: waits %v, want %v", got, quiet/2)
	}
	if got := waitEnd(g, now.Add(quiet), window); got > 0 {
		t.Errorf("the burst has ended: waits %v, want none", got)
	}
	// With slower arrivals the quiet spell is four estimated gaps, and the
	// window still bounds it.
	slow := arrivalGap{last: now, gap: window / 4, known: true}
	if got := waitEnd(slow, now, window); got != window {
		t.Errorf("gap %v: waits %v, want the window %v (four gaps reach past it)", slow.gap, got, window)
	}
	slow.gap = window / 8
	if got := waitEnd(slow, now, window); got != window/2 {
		t.Errorf("gap %v: waits %v, want four gaps %v", slow.gap, got, window/2)
	}
}

// TestLaneGatherSkipsWindowForSparseArrivals: with a shape's history
// showing gaps far longer than the window, a leader stops waiting as soon
// as it has scooped the queue, so sparse same-shape jobs solve at once on
// the solo path instead of each sitting out a 10s window.
func TestLaneGatherSkipsWindowForSparseArrivals(t *testing.T) {
	const window = 10 * time.Second
	s := New(Config{Workers: 2, LaneWidth: 8, LaneWindow: window})
	defer s.Close()

	spec := func(seed int64) JobSpec { return JobSpec{Matrix: randSym(16, seed), Dim: 2} }
	// Seed the shape's history with two arrivals a minute apart: the
	// estimate starts at the 2×window clamp.
	shape := laneShapeOf(16, spec(0).withDefaults())
	s.mu.Lock()
	probe := &Job{shape: shape}
	s.noteLaneArrivalLocked(probe, time.Now().Add(-2*time.Minute))
	s.noteLaneArrivalLocked(probe, time.Now().Add(-time.Minute))
	s.mu.Unlock()

	for i := int64(0); i < 3; i++ {
		j, err := s.Submit(context.Background(), spec(900+i))
		if err != nil {
			t.Fatal(err)
		}
		// Half the window: a leader that waited it out cannot make it.
		ctx, cancel := context.WithTimeout(context.Background(), window/2)
		res, err := j.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("sparse job %d waited for mates no arrival estimate predicted: %v", i, err)
		}
		if res.Backend != BackendEmulated {
			t.Errorf("sparse job %d ran on %q, want the solo reroute %q", i, res.Backend, BackendEmulated)
		}
	}
	if m := s.Metrics(); m.LanesDispatched != 0 {
		t.Errorf("%d lanes dispatched for sparse lone jobs, want 0", m.LanesDispatched)
	}
}

// TestLaneGatherEndsWithBurst: a leader holding a partial lane stops
// waiting soon after its burst ends. Three same-shape jobs submitted back
// to back leave the lane three short of full; the leader runs them once
// the shape has been quiet for a sixteenth of the 10s window, not at the
// window's close.
func TestLaneGatherEndsWithBurst(t *testing.T) {
	const window = 10 * time.Second
	s := New(Config{Workers: 1, LaneWidth: 8, LaneWindow: window})
	defer s.Close()

	var specs []JobSpec
	for i := int64(0); i < 3; i++ {
		specs = append(specs, JobSpec{Matrix: randSym(16, 920+i), Dim: 2})
	}
	jobs, err := s.SubmitAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	// Ten times the expected quiet spell, still short of the window.
	ctx, cancel := context.WithTimeout(context.Background(), 10*window/16)
	defer cancel()
	for i, j := range jobs {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: the leader sat out the window after its burst ended: %v", i, err)
		}
		if res.Backend != BackendLane {
			t.Errorf("burst job %d ran on %q, want %q", i, res.Backend, BackendLane)
		}
	}
	if m := s.Metrics(); m.LanesDispatched != 1 || m.LaneJobs != 3 {
		t.Errorf("metrics: %d lanes / %d lane jobs, want 1/3", m.LanesDispatched, m.LaneJobs)
	}
}

// TestLaneGatherFillsLanesForBursts: same-shape submissions 1 ms apart —
// slower than a worker wakes, far quicker than the window — keep the
// arrival estimate small, so both workers' leaders keep waiting and the
// burst dispatches as full lanes; leaders that stopped after scooping would
// run the early arrivals alone. Each lane is held at its first sweep until
// both have been dispatched, so a finished lane's worker cannot become a
// third leader and split the tail of the burst.
func TestLaneGatherFillsLanesForBursts(t *testing.T) {
	const width = 8
	held := make(chan struct{}, 4*width) // one send per held run; never blocks
	release := make(chan struct{})
	sweepHook = func(j *Job, _ engine.SweepProgress) {
		select {
		case <-release:
			return
		default:
		}
		held <- struct{}{}
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	}
	t.Cleanup(func() { sweepHook = nil })
	s := New(Config{Workers: 2, LaneWidth: width, LaneWindow: 10 * time.Second})
	defer s.Close()

	var specs []JobSpec
	for i := 0; i < 2*width; i++ {
		specs = append(specs, JobSpec{Matrix: randSym(16, int64(950+i)), Dim: 2})
	}
	var jobs []*Job
	for _, spec := range specs {
		j, err := s.Submit(context.Background(), spec)
		if err != nil {
			close(release)
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-held:
		case <-time.After(time.Minute):
			close(release)
			t.Fatal("the burst never dispatched two runs")
		}
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := WaitAll(ctx, jobs); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		res, err := j.Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Backend != BackendLane {
			t.Errorf("burst job %d ran on %q, want %q", i, res.Backend, BackendLane)
		}
	}
	m := s.Metrics()
	if m.LanesDispatched != 2 || m.LaneJobs != 2*width {
		t.Errorf("metrics: %d lanes / %d lane jobs, want 2/%d", m.LanesDispatched, m.LaneJobs, 2*width)
	}
	if m.LaneFillRatio != 1.0 {
		t.Errorf("fill ratio %g, want 1.0 (both lanes full)", m.LaneFillRatio)
	}
}
