package service

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// openStore opens a store on a test directory, failing the test on error.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCacheHitIsolation pins the satellite fix: a caller mutating the
// Result a cache hit handed back must not corrupt what later hits (or the
// original job) observe.
func TestCacheHitIsolation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	spec := JobSpec{Matrix: randSym(16, 5), Dim: 1, Ordering: "pbr"}

	first, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := first.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), r1.Values...)

	hit, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := hit.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Status().CacheHit {
		t.Fatal("second submission was not a cache hit")
	}
	// Vandalize the hit's result.
	for i := range r2.Values {
		r2.Values[i] = -1e99
	}
	r2.Sweeps = -7

	again, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := again.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if r3.Values[i] != want[i] {
			t.Fatalf("cache corrupted by a caller mutation: value %d = %v, want %v", i, r3.Values[i], want[i])
		}
	}
	if r1.Values[0] == -1e99 {
		t.Fatal("mutating a hit's result reached the solving job's result")
	}
}

// TestJobsPageStableUnderCompletion pins the cursor-pagination satellite:
// paging through the job table while jobs concurrently complete (changing
// state under the paginator) must visit every job exactly once, in
// submission order.
func TestJobsPageStableUnderCompletion(t *testing.T) {
	s := New(Config{Workers: 4, RetainJobs: -1})
	defer s.Close()
	const jobs = 120
	for i := 0; i < jobs; i++ {
		// Tiny analytic cost queries: they complete fast and concurrently
		// with the pagination below.
		if _, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(8, int64(i)), Dim: 1, CostOnly: true}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	errs := make(chan error, 1)
	for pager := 0; pager < 3; pager++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				seen := make(map[string]bool, jobs)
				lastSeq := uint64(0)
				cursor := ""
				for {
					page, next, err := s.JobsPage(cursor, 7)
					if err != nil {
						select {
						case errs <- err:
						default:
						}
						return
					}
					for _, j := range page {
						if seen[j.ID()] {
							select {
							case errs <- errDuplicate(j.ID()):
							default:
							}
							return
						}
						seen[j.ID()] = true
						if j.seq <= lastSeq {
							select {
							case errs <- errOrder(j.ID()):
							default:
							}
							return
						}
						lastSeq = j.seq
					}
					if next == "" {
						break
					}
					cursor = next
				}
				if len(seen) != jobs {
					select {
					case errs <- errCount(len(seen), jobs):
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

type pageErr struct{ msg string }

func (e pageErr) Error() string { return e.msg }

func errDuplicate(id string) error { return pageErr{"duplicate job in pagination: " + id} }
func errOrder(id string) error     { return pageErr{"out-of-order job in pagination: " + id} }
func errCount(got, want int) error {
	return pageErr{msg: "pagination visited " + itoa(got) + " jobs, want " + itoa(want)}
}
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestRecoveryTerminalAndQueued: finished jobs restore (status, result,
// idempotency key, warm result cache), jobs that never ran re-enqueue and
// complete after the restart.
func TestRecoveryTerminalAndQueued(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})

	doneSpec := JobSpec{Matrix: randSym(16, 9), Dim: 1, Ordering: "pbr"}
	j1, _, err := s.SubmitKeyed(context.Background(), "the-key", doneSpec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A second job left queued behind a slow one at shutdown: block the
	// single worker with a long solve, then enqueue the victim.
	slow := JobSpec{Matrix: randSym(24, 10), Dim: 1, Tol: 1e-300, MaxSweeps: 5000}
	if _, err := s.Submit(context.Background(), slow); err != nil {
		t.Fatal(err)
	}
	queuedSpec := JobSpec{Matrix: randSym(16, 11), Dim: 1}
	jq, err := s.Submit(context.Background(), queuedSpec)
	if err != nil {
		t.Fatal(err)
	}
	queuedID := jq.ID()
	s.Close()
	st.Close()

	// Restart.
	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Workers: 2, Store: st2})
	defer s2.Close()

	// Finished job: record, result and key survive.
	r1, ok := s2.Job(j1.ID())
	if !ok {
		t.Fatalf("finished job %s not recovered", j1.ID())
	}
	if r1.State() != StateDone {
		t.Fatalf("recovered job state %s, want done", r1.State())
	}
	res, err := r1.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if res.Values[i] != want.Values[i] {
			t.Fatalf("recovered result value %d = %v, want %v", i, res.Values[i], want.Values[i])
		}
	}
	reusedJob, reused, err := s2.SubmitKeyed(context.Background(), "the-key", doneSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reused || reusedJob.ID() != j1.ID() {
		t.Fatalf("idempotency key lost across restart: reused=%v id=%s", reused, reusedJob.ID())
	}
	// Warm cache: an identical fresh submission is a hit, not a re-solve.
	hit, err := s2.Submit(context.Background(), doneSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hit.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !hit.Status().CacheHit {
		t.Fatal("recovered service did not warm the result cache from the journal")
	}

	// Queued job: re-enqueued and completes.
	rq, ok := s2.Job(queuedID)
	if !ok {
		t.Fatalf("queued job %s not recovered", queuedID)
	}
	if _, err := rq.Wait(context.Background()); err != nil {
		t.Fatalf("recovered queued job did not finish: %v", err)
	}
	if rq.Status().Restarts != 0 {
		t.Fatalf("never-started job reports %d restarts", rq.Status().Restarts)
	}
}

// resumeTrial runs one kill-and-restart cycle: a long fixed-length solve
// is cut down by Close after `afterSweeps` sweep events, the service
// reopens on the same store, and the resumed job's result must match the
// uninterrupted control bit-for-bit (reference kernels). Returns the
// recovered job's status for restart bookkeeping assertions.
func resumeTrial(t *testing.T, dir string, spec JobSpec, afterSweeps int, control *Result) Status {
	t.Helper()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st, CheckpointEvery: 1})
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	events, stop := j.Subscribe(64)
	sweeps := 0
	deadline := time.After(30 * time.Second)
	for sweeps < afterSweeps {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("job finished before the kill point — make the spec slower")
			}
			if ev.Type == EventSweep {
				sweeps++
			}
		case <-deadline:
			t.Fatal("no sweep progress before deadline")
		}
	}
	stop()
	s.Close() // shutdown cancel: not journaled as terminal, checkpoint kept
	st.Close()

	st2 := openStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2, CheckpointEvery: 1})
	r, ok := s2.Job(j.ID())
	if !ok {
		t.Fatalf("in-flight job %s not recovered", j.ID())
	}
	status := r.Status()
	res, err := r.Wait(context.Background())
	if err != nil {
		t.Fatalf("resumed job failed: %v", err)
	}
	if res.Sweeps != control.Sweeps || res.Rotations != control.Rotations || res.Converged != control.Converged {
		t.Fatalf("resumed outcome (sweeps=%d rot=%d conv=%v) != control (sweeps=%d rot=%d conv=%v)",
			res.Sweeps, res.Rotations, res.Converged, control.Sweeps, control.Rotations, control.Converged)
	}
	for i := range control.Values {
		if res.Values[i] != control.Values[i] {
			t.Fatalf("resumed eigenvalue %d = %v differs from uninterrupted %v", i, res.Values[i], control.Values[i])
		}
	}
	s2.Close()
	st2.Close()
	return status
}

// TestRecoveryResumesFromCheckpoint is the kill-and-restart differential
// of the issue's acceptance criteria, service edition: a solve
// interrupted at a random sweep and resumed from its checkpoint matches
// the uninterrupted solve bit-identically on the reference (emulated)
// path.
func TestRecoveryResumesFromCheckpoint(t *testing.T) {
	// Non-converging by construction (tol below any reachable MaxRel), so
	// the run length is deterministic: MaxSweeps sweeps.
	spec := JobSpec{Matrix: randSym(32, 21), Dim: 2, Backend: BackendEmulated, Tol: 1e-300, MaxSweeps: 40}

	control := func() *Result {
		s := New(Config{Workers: 1})
		defer s.Close()
		j, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	if control.Converged {
		t.Fatalf("control converged in %d sweeps; the kill window is gone", control.Sweeps)
	}

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for trial := 0; trial < 2; trial++ {
		kill := 1 + rng.Intn(6)
		status := resumeTrial(t, t.TempDir(), spec, kill, control)
		if status.Restarts != 1 {
			t.Fatalf("trial %d: recovered status reports %d restarts, want 1", trial, status.Restarts)
		}
		if status.ResumedFromSweep < 1 {
			t.Fatalf("trial %d: recovered job did not resume from a checkpoint (killed after %d sweeps)", trial, kill)
		}
	}
}

// TestRecoveryDoubleRestart: a job killed twice resumes twice and still
// matches; the restart counter accumulates across restarts.
func TestRecoveryDoubleRestart(t *testing.T) {
	spec := JobSpec{Matrix: randSym(32, 33), Dim: 2, Backend: BackendEmulated, Tol: 1e-300, MaxSweeps: 40}
	control := func() *Result {
		s := New(Config{Workers: 1})
		defer s.Close()
		j, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	dir := t.TempDir()
	// First kill, with the run held at its sweep-2 boundary: the kill
	// lands mid-run however fast the solve is.
	held := holdAtSweep(t, 2)
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st, CheckpointEvery: 1})
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitHeld(t, held)
	s.Close()
	st.Close()
	// Second kill, mid-resumed-run: held at the resumed run's first
	// boundary, so the job cannot finish before the kill.
	held = holdAtSweep(t, 2)
	st = openStore(t, dir)
	s = New(Config{Workers: 1, Store: st, CheckpointEvery: 1})
	if _, ok := s.Job(j.ID()); !ok {
		t.Fatal("job lost after first restart")
	}
	waitHeld(t, held)
	s.Close()
	st.Close()
	sweepHook = nil
	// Final run to completion.
	st = openStore(t, dir)
	defer st.Close()
	s = New(Config{Workers: 1, Store: st, CheckpointEvery: 1})
	defer s.Close()
	r, ok := s.Job(j.ID())
	if !ok {
		t.Fatal("job lost after second restart")
	}
	if got := r.Status().Restarts; got != 2 {
		t.Fatalf("restart counter %d after two kills, want 2", got)
	}
	res, err := r.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range control.Values {
		if res.Values[i] != control.Values[i] {
			t.Fatalf("twice-resumed eigenvalue %d differs from uninterrupted control", i)
		}
	}
	if res.Sweeps != control.Sweeps || res.Rotations != control.Rotations {
		t.Fatalf("twice-resumed bookkeeping (%d sweeps, %d rotations) != control (%d, %d)",
			res.Sweeps, res.Rotations, control.Sweeps, control.Rotations)
	}
}

// holdAtSweep arms sweepHook: the first run to reach a boundary at
// sweep k or later stays there until its job is canceled (Close cancels
// in-flight jobs), so a kill lands mid-run deterministically. The returned
// channel closes once a run is held. Call it only while no service runs.
func holdAtSweep(t *testing.T, k int) <-chan struct{} {
	held := make(chan struct{})
	var once sync.Once
	sweepHook = func(j *Job, p engine.SweepProgress) {
		if p.Sweep < k {
			return
		}
		once.Do(func() { close(held) })
		<-j.ctx.Done()
	}
	t.Cleanup(func() { sweepHook = nil })
	return held
}

// waitHeld blocks until holdAtSweep's run is held.
func waitHeld(t *testing.T, held <-chan struct{}) {
	t.Helper()
	select {
	case <-held:
	case <-time.After(30 * time.Second):
		t.Fatal("run never reached the held sweep")
	}
}

// waitSweeps blocks until the job has emitted n sweep events.
func waitSweeps(t *testing.T, j *Job, n int) {
	t.Helper()
	events, stop := j.Subscribe(64)
	defer stop()
	deadline := time.After(30 * time.Second)
	seen := 0
	for seen < n {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("job finished before enough sweeps")
			}
			if ev.Type == EventSweep {
				seen++
			}
		case <-deadline:
			t.Fatal("no sweep progress before deadline")
		}
	}
}

// TestShutdownCancelNotJournaled: a user cancel IS journaled as terminal
// (the job must not resurrect), while Close's shutdown cancel is not
// (covered by the resume tests above).
func TestShutdownCancelNotJournaled(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	spec := JobSpec{Matrix: randSym(32, 44), Dim: 1, Tol: 1e-300, MaxSweeps: 5000}
	j, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitSweeps(t, j, 1)
	j.Cancel()
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("canceled job returned a result")
	}
	s.Close()
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Workers: 1, Store: st2})
	defer s2.Close()
	r, ok := s2.Job(j.ID())
	if !ok {
		t.Fatal("canceled job record lost across restart")
	}
	if r.State() != StateCanceled {
		t.Fatalf("user-canceled job resurrected as %s after restart", r.State())
	}
}

// TestFailedPersistWithdrawsJob: when the journal append fails, the
// submission must vanish completely — in particular its idempotency key
// must be free again, so a retry resubmits instead of finding a ghost.
func TestFailedPersistWithdrawsJob(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	defer s.Close()
	st.Close() // every Append now fails

	spec := JobSpec{Matrix: randSym(16, 55), Dim: 1}
	if _, _, err := s.SubmitKeyed(context.Background(), "retry-key", spec); err == nil {
		t.Fatal("submission acknowledged without a durable record")
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("withdrawn submission still tracked: %d jobs", len(jobs))
	}
	// The key must not resolve to the withdrawn job: the retry goes down
	// the fresh-submission path again (and fails on the same dead store,
	// not with a reused ghost).
	_, reused, err := s.SubmitKeyed(context.Background(), "retry-key", spec)
	if err == nil || reused {
		t.Fatalf("retry under the failed key: reused=%v err=%v, want a fresh (failing) submission", reused, err)
	}
}

// TestRecoveryPrunesOrphanCheckpoints: a checkpoint left behind by a
// crash between the terminal journal append and its delete is swept at
// the next recovery.
func TestRecoveryPrunesOrphanCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	j, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, 66), Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: the job is journaled done, but a stale
	// snapshot reappears before the process dies.
	if err := st.SaveCheckpoint(j.ID(), fakeCheckpoint(t)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	s2 := New(Config{Workers: 1, Store: st2})
	defer s2.Close()
	if _, err := st2.LoadCheckpoint(j.ID()); !errors.Is(err, store.ErrNoCheckpoint) {
		t.Fatalf("orphan checkpoint survived recovery: %v", err)
	}
}

// fakeCheckpoint builds a minimal valid engine checkpoint for orphan
// tests.
func fakeCheckpoint(t *testing.T) *engine.Checkpoint {
	t.Helper()
	blocks, err := engine.BuildBlocks(randSym(8, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Checkpoint{Dim: 0, Rows: 8, FactorRows: 8, Sweep: 1, TraceGram: 1, Slots: blocks}
}

// TestQueueCapHeldUnderDurableSubmits: the QueueCap admission contract
// must hold at enqueue time even though durable submissions journal
// between the pre-check and the push.
func TestQueueCapHeldUnderDurableSubmits(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	s := New(Config{Workers: 1, QueueCap: 2, Store: st})
	defer s.Close()
	// Occupy the worker so submissions stay queued.
	blocker := JobSpec{Matrix: randSym(32, 77), Dim: 1, Tol: 1e-300, MaxSweeps: 5000}
	bj, err := s.Submit(context.Background(), blocker)
	if err != nil {
		t.Fatal(err)
	}
	defer bj.Cancel()
	waitSweeps(t, bj, 1) // the blocker is running, not queued

	var wg sync.WaitGroup
	var accepted, rejected atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(context.Background(), JobSpec{Matrix: randSym(16, int64(100+i)), Dim: 1})
			if err == nil {
				accepted.Add(1)
			} else if errors.Is(err, ErrQueueFull) {
				rejected.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if got := accepted.Load(); got > 2 {
		t.Fatalf("%d submissions accepted past QueueCap=2", got)
	}
	if accepted.Load()+rejected.Load() != 8 {
		t.Fatalf("accepted %d + queue-full %d != 8 submissions", accepted.Load(), rejected.Load())
	}
}
