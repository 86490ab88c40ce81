package service

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
)

// slowSpec returns a job that holds a worker effectively forever (an
// unreachable tolerance with a multi-minute sweep budget — 5000 sweeps of
// a 24×24 finish in ~200ms, so the budget must dwarf the test duration) so
// queue states can be arranged deterministically; end it with Cancel.
func slowSpec(seed int64) JobSpec {
	return JobSpec{Matrix: randSym(24, seed), Dim: 1, Tol: 1e-300, MaxSweeps: 50_000_000}
}

// waitInFlight polls until the service reports n running jobs.
func waitInFlight(t *testing.T, s *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().InFlight != n {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached %d (now %d)", n, s.Metrics().InFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkBalance pins the accounting invariant every admission and terminal
// path must preserve: jobs accepted past admission this boot equal this
// boot's terminal transitions plus the jobs still live. Recovered jobs are
// in neither side; withdrawn and shed jobs are in both (submitted and
// canceled).
func checkBalance(t *testing.T, m metrics.Snapshot) {
	t.Helper()
	if live := m.Submitted - m.Completed - m.Failed - m.Canceled; live != int64(m.QueueDepth+m.InFlight) {
		t.Errorf("counter imbalance: %d submitted - %d done - %d failed - %d canceled = %d, but %d queued + %d in flight",
			m.Submitted, m.Completed, m.Failed, m.Canceled, live, m.QueueDepth, m.InFlight)
	}
}

// TestShedPriorityAccounting pins the load shedder's policy and books: at
// the high-water mark an incoming job displaces the youngest of the
// lowest-priority queued jobs STRICTLY below it — never an equal-priority
// one — and the victim finishes canceled with the typed ErrShed cause,
// counted as both shed and canceled.
func TestShedPriorityAccounting(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 64, ShedHighWater: 3})
	defer s.Close()

	blocker, err := s.Submit(context.Background(), slowSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, s, 1)

	var low []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, int64(10+i)), Dim: 1, Priority: -1})
		if err != nil {
			t.Fatal(err)
		}
		low = append(low, j)
	}

	// Equal priority does not shed: another low-priority job at the mark
	// just queues (the cap still has room).
	extra, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 20), Dim: 1, Priority: -1})
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.ShedJobs != 0 {
		t.Fatalf("equal-priority submission shed %d jobs", m.ShedJobs)
	}

	// A normal-priority job sheds the youngest low-priority one: extra.
	if _, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 21), Dim: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := extra.Wait(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("shed victim's Wait error = %v, want ErrShed", err)
	}
	if st := extra.Status(); st.State != StateCanceled {
		t.Fatalf("shed victim state %s, want canceled", st.State)
	}
	for _, j := range low {
		if j.State() == StateCanceled {
			t.Fatalf("older low-priority job %s shed before the youngest", j.ID())
		}
	}
	m := s.Metrics()
	if m.ShedJobs != 1 || m.Canceled != 1 {
		t.Fatalf("shed=%d canceled=%d after one shed, want 1/1", m.ShedJobs, m.Canceled)
	}
	if m.Latency["canceled"].Count != 1 {
		t.Fatalf("canceled latency count %d, want 1 (shed jobs must enter the latency stats)", m.Latency["canceled"].Count)
	}
	checkBalance(t, m)

	// Release the worker and drain; the books must still balance and the
	// per-tenant queued gauge must return to empty.
	blocker.Cancel()
	for _, j := range low {
		j.Cancel()
	}
	s.Close()
	m = s.Metrics()
	checkBalance(t, m)
	if len(m.TenantQueued) != 0 {
		t.Fatalf("tenant queued gauge not empty after close: %v", m.TenantQueued)
	}
}

// TestShedUnderLanePressure runs lane-sized same-shape jobs through a shed
// event: the victim must leave the per-tenant gauge and never be scooped
// into a lane, and the surviving lane mates complete with balanced books.
func TestShedUnderLanePressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 64, LaneWidth: 2, ShedHighWater: 2})
	defer s.Close()

	blocker, err := s.Submit(context.Background(), slowSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, s, 1)

	var laneJobs []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, int64(30+i)), Dim: 1, Priority: -1})
		if err != nil {
			t.Fatal(err)
		}
		laneJobs = append(laneJobs, j)
	}
	// High-priority arrival sheds the youngest lane candidate while its
	// shape mates are still queued.
	hi, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 40), Dim: 1, Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := laneJobs[1].Wait(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("lane candidate not shed: %v", err)
	}

	blocker.Cancel()
	if _, err := hi.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := laneJobs[0].Wait(context.Background()); err != nil {
		t.Fatalf("surviving lane mate failed: %v", err)
	}
	m := s.Metrics()
	if m.ShedJobs != 1 {
		t.Fatalf("shed %d, want 1", m.ShedJobs)
	}
	if m.Completed != 2 {
		t.Fatalf("completed %d, want 2 (high-priority job and surviving lane mate)", m.Completed)
	}
	checkBalance(t, m)
	if len(m.TenantQueued) != 0 {
		t.Fatalf("tenant queued gauge leaked: %v", m.TenantQueued)
	}
}

// TestTenantQuotaAndRateLimit pins the typed admission rejections and
// their counters at the service layer: the token bucket fires first, the
// queued-job quota is per tenant, and neither rejection registers a job.
func TestTenantQuotaAndRateLimit(t *testing.T) {
	t.Run("quota", func(t *testing.T) {
		s := New(Config{Workers: 1, TenantQueueQuota: 1})
		defer s.Close()
		blocker, err := s.Submit(context.Background(), slowSpec(3))
		if err != nil {
			t.Fatal(err)
		}
		defer blocker.Cancel()
		waitInFlight(t, s, 1)
		// One queued job fills tenant a's quota; the running blocker (the
		// default tenant) counts against nobody's queue.
		if _, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 50), Dim: 1, Tenant: "a"}); err != nil {
			t.Fatal(err)
		}
		_, err = s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 51), Dim: 1, Tenant: "a"})
		if !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("over-quota submit error = %v, want ErrQuotaExceeded", err)
		}
		// Another tenant is unaffected.
		if _, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 52), Dim: 1, Tenant: "b"}); err != nil {
			t.Fatalf("tenant b rejected by tenant a's quota: %v", err)
		}
		m := s.Metrics()
		if m.QuotaRejected != 1 {
			t.Fatalf("quota rejections %d, want 1", m.QuotaRejected)
		}
		if m.TenantQueued["a"] != 1 || m.TenantQueued["b"] != 1 {
			t.Fatalf("tenant gauge %v, want a:1 b:1", m.TenantQueued)
		}
		checkBalance(t, m)
	})
	t.Run("rate", func(t *testing.T) {
		// Burst 2, negligible refill: the third submission must bounce with
		// the typed error without consuming quota or registering a job.
		s := New(Config{Workers: 2, TenantRate: 0.0001, TenantBurst: 2})
		defer s.Close()
		for i := 0; i < 2; i++ {
			if _, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, int64(60+i)), Dim: 1}); err != nil {
				t.Fatal(err)
			}
		}
		_, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 62), Dim: 1})
		if !errors.Is(err, ErrRateLimited) {
			t.Fatalf("over-rate submit error = %v, want ErrRateLimited", err)
		}
		m := s.Metrics()
		if m.RateLimited != 1 || m.Submitted != 2 {
			t.Fatalf("rate-limited=%d submitted=%d, want 1/2", m.RateLimited, m.Submitted)
		}
		checkBalance(t, m)
	})
}

// TestWithdrawBalancesCounters pins the satellite fix: a durable job
// withdrawn by a failed journal append must land in the canceled counter
// (it was counted submitted at registration), so the snapshot books always
// balance against the job table.
func TestWithdrawBalancesCounters(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	defer s.Close()

	j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 70), Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Kill the journal out from under the service: the next submission's
	// append fails and the job is withdrawn.
	st.Close()
	if _, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 71), Dim: 1}); err == nil {
		t.Fatal("submit succeeded on a closed store")
	}
	m := s.Metrics()
	if m.Submitted != 2 || m.Completed != 1 || m.Canceled != 1 {
		t.Fatalf("submitted=%d completed=%d canceled=%d after a withdrawal, want 2/1/1",
			m.Submitted, m.Completed, m.Canceled)
	}
	if m.Latency["canceled"].Count != 1 {
		t.Fatalf("canceled latency count %d, want 1 (withdrawn jobs must enter the latency stats)", m.Latency["canceled"].Count)
	}
	checkBalance(t, m)
	// The withdrawn job left the table: exactly one job remains listed.
	jobs, _, err := s.JobsPage("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("%d jobs listed after a withdrawal, want 1", len(jobs))
	}
}

// TestRecoveryMetricsSeparated pins the headline satellite fix: terminal
// jobs restored from the journal at boot land in the Recovered* counters,
// NOT in Completed/Failed/Canceled — so a restarted node reports zero
// this-boot throughput until it actually completes something, instead of
// folding yesterday's work into jobs_per_sec.
func TestRecoveryMetricsSeparated(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 2, Store: st})

	for i := 0; i < 2; i++ {
		j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, int64(80+i)), Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	victim, err := s.Submit(context.Background(), slowSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	victim.Cancel()
	if _, err := victim.Wait(context.Background()); err == nil {
		t.Fatal("canceled job waited clean")
	}
	s.Close()
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Workers: 2, Store: st2})
	defer s2.Close()

	m := s2.Metrics()
	if m.RecoveredDone != 2 || m.RecoveredCanceled != 1 {
		t.Fatalf("recovered done=%d canceled=%d, want 2/1", m.RecoveredDone, m.RecoveredCanceled)
	}
	if m.Submitted != 0 || m.Completed != 0 || m.Canceled != 0 {
		t.Fatalf("restored terminals leaked into this-boot counters: submitted=%d completed=%d canceled=%d",
			m.Submitted, m.Completed, m.Canceled)
	}
	if m.JobsPerSec != 0 {
		t.Fatalf("jobs/sec %.3f right after recovery, want 0 (nothing completed this boot)", m.JobsPerSec)
	}
	if m.WallP50Ms != 0 || m.Latency["done"].Count != 0 {
		t.Fatalf("recovered jobs entered the latency stats: p50=%.3f count=%d", m.WallP50Ms, m.Latency["done"].Count)
	}
	if m.TotalModeledMakespan <= 0 {
		t.Fatal("recovered done jobs lost their modeled-makespan contribution (the work WAS executed)")
	}

	// Fresh work moves the this-boot counters as usual.
	j, err := s2.Submit(context.Background(), JobSpec{Matrix: randSym(16, 90), Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	m = s2.Metrics()
	if m.Completed != 1 || m.JobsPerSec <= 0 {
		t.Fatalf("fresh completion: completed=%d jobs/sec=%.3f", m.Completed, m.JobsPerSec)
	}
	checkBalance(t, m)
}

// TestFailedJobEntersLatencyStats pins the third latency satellite: a
// failing job's wall time lands in the failed-outcome stats, not nowhere.
// The deterministic failure is a resumed job whose checkpoint does not
// match its problem shape — engine.Problem.Restore rejects it and the
// solve fails.
func TestFailedJobEntersLatencyStats(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(32, 99), Dim: 2, Backend: BackendEmulated, Tol: 1e-300, MaxSweeps: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	waitSweeps(t, j, 1)
	s.Close()
	st.Close()

	// Corrupt the live job's resume point: a checkpoint from an 8×8 0-cube
	// problem cannot restore a 32×32 2-cube solve.
	st2 := openStore(t, dir)
	if err := st2.SaveCheckpoint(j.ID(), fakeCheckpoint(t)); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3 := openStore(t, dir)
	defer st3.Close()
	s2 := New(Config{Workers: 1, Store: st3})
	defer s2.Close()
	r, ok := s2.Job(j.ID())
	if !ok {
		t.Fatal("live job not recovered")
	}
	if _, err := r.Wait(context.Background()); err == nil {
		t.Fatal("mismatched checkpoint restored clean")
	}
	if r.State() != StateFailed {
		t.Fatalf("job state %s, want failed", r.State())
	}
	m := s2.Metrics()
	if m.Failed != 1 || m.Latency["failed"].Count != 1 {
		t.Fatalf("failed=%d latency count=%d, want 1/1", m.Failed, m.Latency["failed"].Count)
	}
	checkBalance(t, m)
}

// TestMetricsSnapshotOwnsBuckets: a snapshot's histogram bounds are the
// caller's copy. Overwriting them (as a client.Local caller may) must not
// move the bounds later observations are bucketed by or later snapshots
// report.
func TestMetricsSnapshotOwnsBuckets(t *testing.T) {
	s := New(Config{Workers: 1, CacheCap: -1})
	defer s.Close()
	run := func(seed int64) {
		t.Helper()
		j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, seed), Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	first := s.Metrics().Latency["done"]
	want := append([]float64(nil), first.BucketMs...)
	for i := range first.BucketMs {
		first.BucketMs[i] = -1
	}
	run(2)
	done := s.Metrics().Latency["done"]
	if !reflect.DeepEqual(done.BucketMs, want) {
		t.Fatalf("bucket bounds after a caller's write = %v, want %v", done.BucketMs, want)
	}
	if done.Count != 2 || done.BucketCounts[len(done.BucketCounts)-1] != 2 {
		t.Fatalf("count=%d cumulative=%v, want both observations bucketed", done.Count, done.BucketCounts)
	}
}
