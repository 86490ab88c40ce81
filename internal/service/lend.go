package service

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// This file is the service's work-stealing surface, consumed by the
// cluster layer (internal/cluster): an idle peer asks a loaded one to lend
// queued jobs, runs each lent spec through RunSpec on its own workers, and
// ships the Result back. The victim stays the job of record throughout —
// the job keeps its ID, its event stream, its journal records and its
// terminal accounting here; only the CPU time moves. A lease bounds the
// loan: a thief that dies (or just stalls) past the lease sees its late
// completion discarded while the job has already been re-enqueued locally,
// so a steal can delay a job but never lose it.
//
// Every way a loan can settle — thief completes it, thief hands it back,
// lease expires, job canceled, service closes — funnels through a single
// settleLent remover, which is what makes settlement exactly-once: the
// first settler takes the entry, everyone else finds it gone and backs
// off.

// LentJob is one queued job handed to a thief by LendQueued: everything a
// peer needs to run the solve elsewhere. Spec is the job's own normalized
// spec (not a copy of the matrix — the loan window is short and the victim
// does not mutate specs), Backend the solo backend the thief should run
// it on.
type LentJob struct {
	ID      string
	Key     string
	Spec    JobSpec
	Backend string
}

// lentEntry tracks one outstanding loan.
type lentEntry struct {
	job   *Job
	until time.Time
}

// LendQueued removes up to max queued jobs from the priority queue and
// hands them out for remote execution under a lease. Lent jobs count as
// in-flight (they left the queue but are not terminal) and take their
// start transition here — exactly as if a local worker had dequeued them.
// Jobs that cannot travel are skipped: already-canceled ones, and
// resumable ones holding a checkpoint (the checkpoint lives in the
// victim's store; shipping it is not worth the lane). Lane-routed
// specs re-resolve to a solo backend for the thief. The lowest-priority,
// youngest queued jobs go first — the thief relieves the back of the
// queue, never races the victim's own workers for the front.
func (s *Service) LendQueued(max int, lease time.Duration) []LentJob {
	if max <= 0 {
		return nil
	}
	if lease <= 0 {
		lease = 30 * time.Second
	}
	s.leaseOnce.Do(func() {
		s.wg.Add(1)
		go s.leaseJanitor()
	})
	until := time.Now().Add(lease)
	var picked []*Job
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	for len(picked) < max {
		v := -1
		for i, q := range s.queue {
			// Never lend a resumable job (the checkpoint is local).
			if q.ctx.Err() != nil || q.resume != nil {
				continue
			}
			if v < 0 || q.priority < s.queue[v].priority ||
				(q.priority == s.queue[v].priority && q.seq > s.queue[v].seq) {
				v = i
			}
		}
		if v < 0 {
			break
		}
		j := heap.Remove(&s.queue, v).(*Job)
		s.noteDequeuedLocked(j)
		s.inflight++
		picked = append(picked, j)
	}
	// The start transitions journal, so they run outside s.mu; subWG keeps
	// a closing service's store open until they are done.
	s.subWG.Add(1)
	defer s.subWG.Done()
	s.mu.Unlock()

	// Nothing else holds the picked jobs until they are registered as
	// loans below, so no settler or Close can finish one before it starts.
	for _, j := range picked {
		j.apply(change{ev: evStart})
	}
	s.mu.Lock()
	if s.closed {
		s.inflight -= len(picked)
		s.mu.Unlock()
		// Close missed these loans: drop them like the ones it settled.
		for _, j := range picked {
			j.abort(ErrShutdown)
		}
		return nil
	}
	for _, j := range picked {
		s.lent[j.id] = &lentEntry{job: j, until: until}
	}
	s.mu.Unlock()

	out := make([]LentJob, 0, len(picked))
	for _, j := range picked {
		spec := j.Spec()
		backend := j.Backend()
		if backend == BackendLane || backend == BackendAuto {
			backend = spec.selectBackend(s.cfg.MulticoreThreshold, 0)
		}
		out = append(out, LentJob{ID: j.id, Key: j.idemKey, Spec: spec, Backend: backend})
	}
	return out
}

// CompleteLent settles a loan with the thief's outcome: a Result, or an
// error message for a failed solve. It reports whether the completion was
// accepted — false means the loan already settled some other way (lease
// expired and the job re-queued, job canceled, service closed) and the
// thief's work is discarded; the caller must not treat the job as done.
func (s *Service) CompleteLent(id string, res *Result, errMsg string) bool {
	j := s.settleLent(id)
	if j == nil {
		return false
	}
	switch {
	case j.abortIfCanceled():
	case errMsg != "":
		j.apply(change{ev: evFail, err: fmt.Errorf("service: remote solve: %s", errMsg)})
	case res == nil:
		j.apply(change{ev: evFail, err: errors.New("service: remote solve returned no result")})
	default:
		j.apply(change{ev: evDone, res: res})
	}
	return true
}

// ReturnLent hands a loan back unexecuted (the thief could not run it):
// the job re-enters the queue as if never lent. Reports whether the entry
// was still outstanding.
func (s *Service) ReturnLent(id string) bool {
	j := s.settleLent(id)
	if j == nil {
		return false
	}
	s.requeueLent(j)
	return true
}

// settleLent atomically takes the outstanding loan for id, returning nil
// if none is outstanding (already settled, expired, or never lent). The
// caller that receives the job owns its settlement; inflight accounting is
// resolved here so exactly one settler decrements it.
func (s *Service) settleLent(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lent[id]
	if !ok {
		return nil
	}
	delete(s.lent, id)
	s.inflight--
	return e.job
}

// requeueLent pushes a settled loan back into the queue through the
// requeue transition, whose fresh queued event lets watchers see the
// bounce before any worker can start the job again. A canceled job or a
// closed service finishes it instead.
func (s *Service) requeueLent(j *Job) {
	if j.abortIfCanceled() || !j.apply(change{ev: evRequeue}) {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.abort(ErrShutdown)
		return
	}
	s.enqueueLocked(j)
	s.mu.Unlock()
	s.cond.Signal()
}

// leaseJanitor re-queues loans whose lease expired without a settlement.
// Started lazily by the first LendQueued, stopped by Close.
func (s *Service) leaseJanitor() {
	defer s.wg.Done()
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case now := <-t.C:
			var expired []string
			s.mu.Lock()
			for id, e := range s.lent {
				if now.After(e.until) {
					expired = append(expired, id)
				}
			}
			s.mu.Unlock()
			for _, id := range expired {
				if j := s.settleLent(id); j != nil {
					s.requeueLent(j)
				}
			}
		}
	}
}

// Load reports the service's instantaneous queue depth and in-flight count
// (lent jobs included in the latter) — the signal the cluster steal loop
// uses to decide who is starving and who is loaded.
func (s *Service) Load() (queued, inflight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.inflight
}
