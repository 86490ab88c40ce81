package service

import (
	"container/heap"
	"time"

	"repro/internal/engine"
	"repro/internal/ordering"
)

// The batch-lane scheduler: when a worker pops a lane-routed job (the
// leader), it holds a short gather window (Config.LaneWindow) scooping
// queued jobs with the same shape fingerprint — matrix size, hypercube
// dimension, ordering — into a lane of up to Config.LaneWidth jobs, while
// a mate is due by the shape's arrival estimate (see gatherLane), then
// runs the whole lane in SIMD lockstep on engine.BatchedBackend. One
// worker slot thus serves LaneWidth jobs; the other workers keep draining
// non-lane work (multicore for big jobs, per the auto-selection split).
//
// Scheduling properties preserved from the solo path:
//
//   - priority: the leader is the globally highest-priority queued job,
//     and mates are scooped in heap order (priority, then FIFO);
//   - cancellation: a canceled lane member stops at its next sweep
//     boundary (its lane is masked; mates are unaffected);
//   - checkpoint/resume: each lane member checkpoints independently — a
//     lane checkpoint is K ordinary job checkpoints — and a recovered job
//     holding a resume point runs solo (the lane engine starts from the
//     canonical placement only);
//   - result cache: members resolve hits before the lane runs and store
//     their results after it.

// laneShape is the lane-compatibility key of a job: matrix size,
// hypercube dimension and ordering. popLaneMateLocked matches mates by it
// and the arrival estimator is kept per shape. Jobs carry it immutably
// from construction (Job.shape), so both read it without the job's lock.
type laneShape struct {
	n, dim   int
	ordering string
}

// laneShapeOf returns the lane shape of a size-n job with the given spec.
func laneShapeOf(n int, spec JobSpec) laneShape {
	return laneShape{n: n, dim: spec.Dim, ordering: spec.Ordering}
}

// maxLaneShapes bounds Service.laneGaps: past it the estimates restart,
// which only makes the next leaders of each shape wait as if unmeasured.
const maxLaneShapes = 1024

// arrivalGap estimates one lane shape's inter-arrival gap: an EWMA with
// weight 1/8 over the gaps between consecutive lane-routed enqueues of the
// shape, each sample clamped to twice the gather window (one idle spell
// must not hide a burst for long). The zero value has no estimate.
type arrivalGap struct {
	last  time.Time     // the shape's latest enqueue
	gap   time.Duration // smoothed gap; meaningful once known
	known bool          // at least one gap observed
}

// observe records an enqueue of the shape at now.
func (g *arrivalGap) observe(now time.Time, window time.Duration) {
	if !g.last.IsZero() {
		sample := min(now.Sub(g.last), 2*window)
		if g.known {
			g.gap += (sample - g.gap) / 8
		} else {
			g.gap, g.known = sample, true
		}
	}
	g.last = now
}

// waitEnd is when a leader at now, whose gather window closes at
// deadline, stops waiting for mates: at the deadline while the shape has
// no estimate; at once when the estimated gap does not fit in what is left
// of the window; otherwise once the shape goes quiet — no enqueue for four
// estimated gaps, so its burst has ended — or at the deadline, whichever
// comes first. The quiet spell is never shorter than a sixteenth of the
// window, which covers how late a woken leader gets to look.
func (g arrivalGap) waitEnd(now, deadline time.Time, window time.Duration) time.Time {
	if !g.known {
		return deadline
	}
	if g.gap > deadline.Sub(now) {
		return now
	}
	if quiet := g.last.Add(max(4*g.gap, window/16)); quiet.Before(deadline) {
		return quiet
	}
	return deadline
}

// noteLaneArrivalLocked feeds a lane-routed enqueue into its shape's
// arrival estimate. Caller holds s.mu.
func (s *Service) noteLaneArrivalLocked(j *Job, now time.Time) {
	if s.laneGaps == nil || len(s.laneGaps) >= maxLaneShapes {
		s.laneGaps = make(map[laneShape]arrivalGap)
	}
	g := s.laneGaps[j.shape]
	g.observe(now, s.cfg.LaneWindow)
	s.laneGaps[j.shape] = g
}

// gatherLane assembles the leader's lane: it scoops compatible queued jobs
// immediately, then waits for more while a mate is due (arrivalGap.waitEnd)
// and the gather window is open, waking on every queue signal and once at
// the end of the wait. It returns at least the leader; at most LaneWidth jobs.
func (s *Service) gatherLane(leader *Job) []*Job {
	lane := []*Job{leader}
	if s.cfg.LaneWidth < 2 || leader.hasResume() {
		return lane
	}
	deadline := time.Now().Add(s.cfg.LaneWindow)
	s.mu.Lock()
	for {
		for len(lane) < s.cfg.LaneWidth {
			m := s.popLaneMateLocked(leader)
			if m == nil {
				break
			}
			s.claimLocked(m)
			lane = append(lane, m)
		}
		if len(lane) >= s.cfg.LaneWidth || s.closed {
			break
		}
		now := time.Now()
		remain := s.laneGaps[leader.shape].waitEnd(now, deadline, s.cfg.LaneWindow).Sub(now)
		if remain <= 0 {
			break
		}
		// Hand unclaimed work to an idle worker before sleeping: the Wait
		// below competes for the same cond as idle workers, and a Signal
		// meant to start a non-mate job must not die here.
		if len(s.queue) > 0 {
			s.cond.Signal()
		}
		timer := time.AfterFunc(remain, s.cond.Broadcast)
		s.cond.Wait()
		timer.Stop()
	}
	if len(s.queue) > 0 {
		s.cond.Signal()
	}
	s.mu.Unlock()
	return lane
}

// popLaneMateLocked removes and returns the best queued lane mate for the
// leader — same lane shape (matrix size, dimension, ordering), lane-routed,
// not holding a resume checkpoint — in heap order (priority first, then
// submission order). Nil when none is queued. Caller holds s.mu.
func (s *Service) popLaneMateLocked(leader *Job) *Job {
	best := -1
	for i, m := range s.queue {
		if m.backend != BackendLane || m.shape != leader.shape || m.hasResume() {
			continue
		}
		if best < 0 || s.queue.Less(i, best) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	m := heap.Remove(&s.queue, best).(*Job)
	s.noteDequeuedLocked(m)
	return m
}

// executeLane runs a gathered lane: canceled members finish immediately,
// resumed members run solo, cache hits resolve without solving, and —
// crucially for latency — a lone auto-routed survivor re-resolves against
// the solo backend rules (MulticoreThreshold) and runs at once rather than
// solving on a width-1 lane, so a small job that never found lane mates is
// never starved by lane routing.
func (s *Service) executeLane(lane []*Job) {
	run := make([]*Job, 0, len(lane))
	for _, j := range lane {
		switch {
		case j.abortIfCanceled():
		case j.hasResume():
			// A resumed job restarts mid-solve from an engine checkpoint,
			// which only the solo paths restore.
			s.rerouteSolo(j)
		case !s.serveCached(j):
			run = append(run, j)
		}
	}
	switch {
	case len(run) == 0:
	case len(run) == 1 && run[0].Spec().Backend == BackendAuto:
		// The gather ended without mates: re-check the job's shape
		// against the solo auto-selection rules so it solves promptly.
		s.rerouteSolo(run[0])
	default:
		// Explicitly lane-addressed lone jobs run a width-1 lane: the
		// caller asked for the lane backend and gets it.
		s.runLane(run)
	}
}

// rerouteSolo re-resolves a lane-routed job onto a solo backend (lane
// selection disabled), recomputes its result-cache fingerprint for the new
// backend, and runs it through the ordinary solo execute path.
func (s *Service) rerouteSolo(j *Job) {
	spec := j.Spec()
	if spec.Backend == BackendLane {
		// An explicitly lane-addressed job forced solo (resume checkpoint)
		// falls back to the auto rules.
		spec.Backend = BackendAuto
	}
	backend := spec.selectBackend(s.cfg.MulticoreThreshold, 0)
	var fp uint64
	if s.cfg.CacheCap >= 0 {
		fp = spec.fingerprint(backend)
	}
	j.mu.Lock()
	j.backend = backend
	j.fp = fp
	j.mu.Unlock()
	s.execute(j)
}

// runLane solves the jobs together on the batched lane and finishes each
// with its own result. Per-job hooks mirror solve(): sweep progress feeds
// each job's event stream, cancellation interrupts only its own lane
// member at a sweep boundary, and each convergence-bounded job checkpoints
// through its own async writer.
func (s *Service) runLane(jobs []*Job) {
	spec0 := jobs[0].Spec()
	fam, err := ordering.FamilyByName(spec0.Ordering)
	if err != nil {
		for _, j := range jobs {
			j.apply(change{ev: evFail, err: err})
		}
		return
	}
	lane := make([]*engine.LaneJob, len(jobs))
	writers := make([]*ckptWriter, len(jobs))
	var prepErr error
	for i, j := range jobs {
		j.apply(change{ev: evStart})
		spec := j.Spec()
		prob, err := engine.NewProblem(spec.Matrix, spec0.Dim, nil)
		if err != nil {
			prepErr = err
			break
		}
		lane[i] = &engine.LaneJob{
			Blocks:      prob.Blocks,
			Opts:        engine.Options{Tol: spec.Tol, MaxSweeps: spec.MaxSweeps},
			Rows:        prob.Rows,
			FixedSweeps: spec.FixedSweeps,
			TraceGram:   prob.TraceGram,
			Interrupt:   func() bool { return j.ctx.Err() != nil },
			OnSweep:     j.publishSweep,
		}
		if s.checkpoints(spec) {
			w := newCkptWriter(s, j.id, shapeOf(BackendLane, spec))
			writers[i] = w
			lane[i].OnCheckpoint = w.offer
			lane[i].CheckpointEvery = s.checkpointEvery(w.key)
			j.setCheckpointEvery(lane[i].CheckpointEvery)
		}
	}
	s.recordLane(len(jobs))
	start := time.Now()
	var outs []*engine.Outcome
	laneErr := prepErr
	if laneErr == nil {
		outs, laneErr = (&engine.BatchedBackend{}).RunLane(spec0.Dim, fam, lane)
	}
	wallMs := float64(time.Since(start).Microseconds()) / 1000
	for _, w := range writers {
		if w != nil {
			w.close()
		}
	}
	for i, j := range jobs {
		switch {
		case j.abortIfCanceled():
		case laneErr != nil:
			j.apply(change{ev: evFail, err: laneErr})
		default:
			eig := outs[i].Eigen()
			res := &Result{
				Backend:     BackendLane,
				Values:      eig.Values,
				Sweeps:      eig.Sweeps,
				Converged:   eig.Converged,
				Interrupted: eig.Interrupted,
				Rotations:   eig.Rotations,
				FinalMaxRel: eig.FinalMaxRel,
				WallMs:      wallMs,
			}
			if w := writers[i]; w != nil {
				s.ckpt.observeRun(w.key, res)
			}
			j.apply(change{ev: evDone, res: res})
		}
	}
}
