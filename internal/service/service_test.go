package service

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

// randSym returns the deterministic test matrix for a seed.
func randSym(n int, seed int64) *matrix.Dense {
	return matrix.RandomSymmetric(n, rand.New(rand.NewSource(seed)))
}

// sequentialValues runs the single-solve sequential reference (the engine's
// central replay) for a spec and returns its eigenvalues.
func sequentialValues(t *testing.T, spec JobSpec) []float64 {
	t.Helper()
	fam, err := ordering.FamilyByName(spec.Ordering)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := engine.NewProblem(spec.Matrix, spec.Dim, nil)
	if err != nil {
		t.Fatal(err)
	}
	prob.Family = fam
	prob.Opts = engine.Options{Tol: spec.Tol, MaxSweeps: spec.MaxSweeps}
	out, err := prob.RunCentral()
	if err != nil {
		t.Fatal(err)
	}
	return out.Eigen().Values
}

// TestBatchMatchesSequential is the service-level acceptance check: a
// 16-problem batch at concurrency 4 must produce per-job eigenvalues
// bit-identical to sequential single-solve runs of the same problems.
func TestBatchMatchesSequential(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()

	orderings := []string{"br", "pbr", "d4", "minalpha"}
	var specs []JobSpec
	for i := 0; i < 16; i++ {
		specs = append(specs, JobSpec{
			Matrix:   randSym(16+8*(i%3), int64(100+i)),
			Dim:      1 + i%2,
			Ordering: orderings[i%len(orderings)],
		})
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
		want := sequentialValues(t, specs[i].withDefaults())
		if len(res.Values) != len(want) {
			t.Fatalf("job %d: %d values, want %d", i, len(res.Values), len(want))
		}
		for k := range want {
			if res.Values[k] != want[k] {
				t.Errorf("job %d value %d: batch %.17g vs sequential %.17g", i, k, res.Values[k], want[k])
			}
		}
	}
	m := s.Metrics()
	if m.Completed != 16 {
		t.Errorf("completed %d jobs, want 16", m.Completed)
	}
}

// TestBackendAutoSelection pins the selection rules: analytic for
// cost-only, emulated for traced, multicore for large n, emulated
// otherwise, and explicit choices win.
func TestBackendAutoSelection(t *testing.T) {
	small := randSym(16, 1)
	big := randSym(256, 2)
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"cost-only", JobSpec{Matrix: small, Dim: 1, CostOnly: true}, BackendAnalytic},
		{"traced", JobSpec{Matrix: small, Dim: 1, WantTrace: true}, BackendEmulated},
		{"large", JobSpec{Matrix: big, Dim: 2}, BackendMulticore},
		{"small-default", JobSpec{Matrix: small, Dim: 1}, BackendEmulated},
		{"explicit", JobSpec{Matrix: big, Dim: 2, Backend: BackendAnalytic}, BackendAnalytic},
		{"cost-only-large", JobSpec{Matrix: big, Dim: 2, CostOnly: true}, BackendAnalytic},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec.withDefaults()
			if got := spec.selectBackend(128, 0); got != tc.want {
				t.Errorf("selectBackend = %q, want %q", got, tc.want)
			}
		})
	}
	// The default threshold is pinned to the measured fused-kernel
	// crossover (see Config.MulticoreThreshold): n=64 must auto-select
	// multicore under the default config, n=63 must not.
	def := Config{}.withDefaults()
	if def.MulticoreThreshold != 64 {
		t.Errorf("default MulticoreThreshold = %d, want 64", def.MulticoreThreshold)
	}
	at := JobSpec{Matrix: randSym(64, 3), Dim: 1}.withDefaults()
	below := JobSpec{Matrix: randSym(63, 3), Dim: 1}.withDefaults()
	if got := at.selectBackend(def.MulticoreThreshold, 0); got != BackendMulticore {
		t.Errorf("n=64 auto-selected %q, want multicore", got)
	}
	if got := below.selectBackend(def.MulticoreThreshold, 0); got != BackendEmulated {
		t.Errorf("n=63 auto-selected %q, want emulated", got)
	}
}

// TestCostOnlyMakespanMatchesModel: an auto-selected cost-only job runs on
// the analytic backend with one fixed sweep, so its makespan must equal
// the closed-form baseline cost model exactly.
func TestCostOnlyMakespanMatchesModel(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	const n, d = 64, 2
	j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(n, 7), Dim: d, Ordering: "br", CostOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != BackendAnalytic {
		t.Fatalf("cost-only job ran on %q", res.Backend)
	}
	want := costmodel.BaselineSweepCost(d, costmodel.Params{M: n, Ts: 1000, Tw: 100})
	if rel := math.Abs(res.Makespan-want) / want; rel > 1e-9 {
		t.Errorf("makespan %.6f vs closed form %.6f (rel %.2e)", res.Makespan, want, rel)
	}
}

// TestConformanceBatchCostModel: a whole batch of cost-only jobs of mixed
// shapes runs through the service concurrently, and every job's analytic
// makespan equals the closed-form baseline cost exactly.
func TestConformanceBatchCostModel(t *testing.T) {
	s := New(Config{Workers: 4, CacheCap: -1})
	defer s.Close()
	shapes := []struct{ n, d int }{
		{32, 1}, {32, 2}, {48, 1}, {48, 2}, {64, 2}, {64, 3}, {96, 2}, {128, 3},
	}
	var specs []JobSpec
	for i, sh := range shapes {
		specs = append(specs, JobSpec{
			Matrix:   randSym(sh.n, int64(500+i)),
			Dim:      sh.d,
			Ordering: "br",
			CostOnly: true,
		})
	}
	jobs, err := s.SubmitAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		res, err := j.Result()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		want := costmodel.BaselineSweepCost(shapes[i].d, costmodel.Params{M: float64(shapes[i].n), Ts: 1000, Tw: 100})
		if rel := math.Abs(res.Makespan-want) / want; rel > 1e-9 {
			t.Errorf("job %d (n=%d d=%d): makespan %.3f vs closed form %.3f (rel %.2e)",
				i, shapes[i].n, shapes[i].d, res.Makespan, want, rel)
		}
	}
}

// TestResultCache: identical specs hit the fingerprint cache; different
// specs do not.
func TestResultCache(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	spec := JobSpec{Matrix: randSym(16, 3), Dim: 1, Ordering: "pbr"}

	first, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := first.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := second.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The hit serves the same values but never the same backing slices: a
	// caller mutating its copy must not corrupt later hits (see
	// TestCacheHitIsolation).
	if len(r1.Values) != len(r2.Values) || r1.Sweeps != r2.Sweeps {
		t.Error("identical specs did not share the cached result")
	}
	for i := range r1.Values {
		if r1.Values[i] != r2.Values[i] {
			t.Fatalf("cached value %d differs: %v vs %v", i, r1.Values[i], r2.Values[i])
		}
	}
	if &r1.Values[0] == &r2.Values[0] {
		t.Error("cache hit handed out the solving job's backing slice")
	}
	if !second.Status().CacheHit {
		t.Error("second job not marked as a cache hit")
	}
	if first.Fingerprint() != second.Fingerprint() {
		t.Error("identical specs fingerprint differently")
	}

	other, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 4), Dim: 1, Ordering: "pbr"})
	if err != nil {
		t.Fatal(err)
	}
	if other.Fingerprint() == first.Fingerprint() {
		t.Error("different matrices share a fingerprint")
	}
	if _, err := other.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.CacheHits != 1 {
		t.Errorf("cache hits %d, want 1", m.CacheHits)
	}
	if m.CacheSize != 2 {
		t.Errorf("cache size %d, want 2", m.CacheSize)
	}
}

// TestPriorityOrdering: with one busy worker, a high-priority job submitted
// after a low-priority one still runs first.
func TestPriorityOrdering(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	// Occupy the single worker until both probes have queued.
	blocker, err := s.Submit(context.Background(), stuckSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, blocker, StateRunning)

	low, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 6), Dim: 1, Priority: PriorityLow, Label: "low"})
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 7), Dim: 1, Priority: PriorityHigh, Label: "high"})
	if err != nil {
		t.Fatal(err)
	}
	blocker.Cancel()
	if _, err := high.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The single worker just finished the high job; the low one must not
	// have started before it.
	if st := low.State(); st == StateDone {
		hs, ls := high.Status(), low.Status()
		if ls.WaitMs < hs.WaitMs {
			t.Errorf("low-priority job started before high-priority one (wait %f vs %f ms)", ls.WaitMs, hs.WaitMs)
		}
	}
	if _, err := low.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// stuckSpec never converges (its tolerance is below any reachable
// off-norm) on the emulated backend, so it holds a worker until canceled:
// a test can wait for it to run without racing its completion.
func stuckSpec(seed int64) JobSpec {
	return JobSpec{Matrix: randSym(64, seed), Dim: 2, Backend: BackendEmulated, Tol: 1e-300, MaxSweeps: 100000}
}

func waitForState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := j.State()
		if st == want {
			return
		}
		if st == StateDone || st == StateFailed || st == StateCanceled {
			t.Fatalf("job reached terminal state %s while waiting for %s", st, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job never reached state %s", want)
}

// TestCancelQueued: canceling a queued job withdraws it without running.
func TestCancelQueued(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	blocker, err := s.Submit(context.Background(), stuckSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, blocker, StateRunning)
	victim, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 9), Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	if _, err := victim.Wait(context.Background()); err == nil {
		t.Fatal("canceled job returned a result")
	}
	if st := victim.State(); st != StateCanceled {
		t.Errorf("canceled job state %s, want %s", st, StateCanceled)
	}
	// The canceled job released its queue slot immediately — it did not
	// wait for a worker to reach it (the blocker is still running).
	if depth := s.Metrics().QueueDepth; depth != 0 {
		t.Errorf("queue depth %d after cancel, want 0", depth)
	}
	m := s.Metrics()
	if m.Canceled < 1 {
		t.Errorf("canceled count %d, want >= 1", m.Canceled)
	}
}

// TestCancelRunning: a running job stops at its next sweep boundary once
// its context is canceled.
func TestCancelRunning(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A large emulated solve runs long enough (many sweeps of serialized
	// exchanges) to observe the interrupt.
	j, err := s.Submit(ctx, JobSpec{Matrix: randSym(96, 10), Dim: 2, Backend: BackendEmulated})
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, j, StateRunning)
	cancel()
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if _, err := j.Wait(wctx); err == nil {
		t.Fatal("canceled running job returned a result")
	}
	if st := j.State(); st != StateCanceled {
		t.Errorf("state %s, want %s", st, StateCanceled)
	}
}

// TestSubmitValidation rejects malformed specs up front.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	bad := []JobSpec{
		{},                                // no matrix
		{Matrix: randSym(16, 1), Dim: -1}, // bad dim
		{Matrix: randSym(4, 1), Dim: 3},   // too few columns for 16 blocks
		{Matrix: randSym(16, 1), Ordering: "nope"},
		{Matrix: randSym(16, 1), Backend: "gpu"},
		{Matrix: randSym(16, 1), WantTrace: true, Backend: BackendMulticore},
		{Matrix: randSym(16, 1), CostOnly: true, Backend: BackendMulticore}, // clockless cost query
		{Matrix: randSym(16, 1), CostOnly: true, WantTrace: true},           // analytic records no trace
		{Matrix: randSym(16, 1), Priority: 99},                              // outside the documented classes
	}
	for i, spec := range bad {
		if _, err := s.Submit(context.Background(), spec); err == nil {
			t.Errorf("spec %d accepted, want error", i)
		}
	}
	if got := s.Metrics().Submitted; got != 0 {
		t.Errorf("rejected specs counted as submissions: %d", got)
	}
}

// TestCloseCancelsQueued: Close drains the queue, cancels queued jobs and
// waits for running ones.
func TestCloseCancelsQueued(t *testing.T) {
	s := New(Config{Workers: 1})
	blocker, err := s.Submit(context.Background(), stuckSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, blocker, StateRunning)
	queued, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 12), Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if st := queued.State(); st != StateCanceled {
		t.Errorf("queued job state after Close: %s, want %s", st, StateCanceled)
	}
	if _, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 13), Dim: 1}); err == nil {
		t.Error("Submit succeeded on a closed service")
	}
}

// TestJobRetentionBound: finished job records are evicted FIFO past
// RetainJobs, while live jobs survive.
func TestJobRetentionBound(t *testing.T) {
	s := New(Config{Workers: 2, RetainJobs: 4, CacheCap: -1})
	defer s.Close()
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, int64(40+i)), Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Jobs()); got > 4+1 { // +1: the eviction runs at submit time
		t.Errorf("retained %d job records, want <= 5", got)
	}
	if _, ok := s.Job(jobs[0].ID()); ok {
		t.Error("oldest finished job still retained past the bound")
	}
	if _, ok := s.Job(jobs[len(jobs)-1].ID()); !ok {
		t.Error("newest job evicted")
	}
}

// TestTracedJob: a WantTrace job lands on the emulated backend and carries
// a trace summary whose makespan matches the run's.
func TestTracedJob(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 14), Dim: 2, WantTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != BackendEmulated {
		t.Fatalf("traced job ran on %q", res.Backend)
	}
	if res.Trace == nil || res.Trace.Events == 0 {
		t.Fatal("traced job has no trace summary")
	}
	if res.Trace.MaxDimShare <= 0 {
		t.Error("trace summary has no dimension shares")
	}
}

// TestMetricsPercentiles: enough completions produce sane latency stats
// and a positive throughput.
func TestMetricsPercentiles(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	var specs []JobSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, JobSpec{Matrix: randSym(16, int64(20+i)), Dim: 1})
	}
	jobs, err := s.SubmitAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if err := WaitAll(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Completed != 8 {
		t.Fatalf("completed %d, want 8", m.Completed)
	}
	if m.WallP99Ms < m.WallP50Ms {
		t.Errorf("p99 %.3f < p50 %.3f", m.WallP99Ms, m.WallP50Ms)
	}
	if m.JobsPerSec <= 0 {
		t.Errorf("jobs/sec %.3f, want > 0", m.JobsPerSec)
	}
	if m.TotalModeledMakespan <= 0 {
		t.Errorf("total modeled makespan %.3f, want > 0 (emulated jobs have a clock)", m.TotalModeledMakespan)
	}
	if m.ScheduleBuilds == 0 && m.ScheduleHits == 0 {
		t.Error("schedule cache counters untouched by a batch of solves")
	}
}
