package service

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// This file is the job lifecycle: one table of legal state changes and one
// method, Job.apply, that moves a job through it. Every state change of a
// live job goes through apply, and journal replay (foldRecords) runs each
// record through the same table, so the live path and recovery cannot
// disagree about which sequences are legal.
//
//	from \ event  submit  start    requeue  done  fail    cancel
//	unsubmitted   queued  -        -        -     -       -
//	queued        -       running  -        done  failed  canceled
//	running       -       -        queued   done  failed  canceled
//
// done, failed and canceled have no row: a terminal job absorbs every
// event. DESIGN.md §7 lists the side effects each transition owns.

// event is one lifecycle input.
type event uint8

const (
	evSubmit  event = iota // accepted (replay only: a live job is born queued)
	evStart                // a worker, a lane or a lender takes the job
	evRequeue              // a loan came back unexecuted
	evDone                 // a result: solved, or served from the cache while queued
	evFail                 // the solve failed
	evCancel               // canceled, shed, withdrawn or shut down
	eventCount
)

// stateUnsubmitted is a job's position before its submitted record. Only
// replay sees it: a live job is born queued.
const stateUnsubmitted State = "unsubmitted"

// lifecycle[from][ev] is the state ev moves a job in state from to; a
// missing entry is an illegal event.
var lifecycle = map[State]map[event]State{
	stateUnsubmitted: {evSubmit: StateQueued},
	StateQueued:      {evStart: StateRunning, evDone: StateDone, evFail: StateFailed, evCancel: StateCanceled},
	StateRunning:     {evRequeue: StateQueued, evDone: StateDone, evFail: StateFailed, evCancel: StateCanceled},
}

// next looks one transition up in the table.
func next(from State, ev event) (State, bool) {
	to, ok := lifecycle[from][ev]
	return to, ok
}

// terminal reports whether s ends the lifecycle.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// finishEvents maps a terminal state to the event that leads to it;
// terminalEvents maps it to the stream event that announces it.
var (
	finishEvents   = map[State]event{StateDone: evDone, StateFailed: evFail, StateCanceled: evCancel}
	terminalEvents = map[State]EventType{StateDone: EventDone, StateFailed: EventFailed, StateCanceled: EventCanceled}
)

// change is one input to Job.apply: the event plus the outcome a terminal
// event carries.
type change struct {
	ev       event
	res      *Result // evDone
	err      error   // evFail, evCancel: the cause
	cacheHit bool    // evDone served from the result cache
	restored bool    // replayed from a journal: the outcome is recorded already
}

// apply moves the job through one event and performs the side effects the
// transition owns. The table decides under j.mu, and the state, its stamp
// and the outcome change with it. An event the table does not allow from
// the job's state (every event, once the job is terminal) is refused:
// apply returns false and changes, journals and publishes nothing. The
// rest runs after j.mu is released:
//
//   - start: a started record (durable stores, best effort: a lost one only
//     makes recovery re-enqueue the job instead of counting a restart),
//     then the started event;
//   - requeue: the queued event (the caller re-enqueues the job);
//   - done, fail, cancel: the context released; the terminal record, except
//     for restored jobs and shutdown cancels (see persistFinished); a
//     result that was not served from the cache fills it; the metrics,
//     which release the in-flight slot; for a job that ends without
//     running (a cache hit, a restored job) a started event; the terminal
//     event; done closed.
//
// Metrics precede the terminal event and the terminal event precedes done,
// so a caller returning from Wait finds the job counted and its event
// stream complete. Must be called without s.mu held.
func (j *Job) apply(c change) bool {
	j.mu.Lock()
	from := j.state
	to, ok := next(from, c.ev)
	if !ok {
		j.mu.Unlock()
		return false
	}
	j.state = to
	now := time.Now()
	var runMs float64
	switch {
	case to == StateRunning:
		j.started = now
	case to.terminal():
		j.result, j.err, j.cacheHit = c.res, c.err, c.cacheHit
		j.finished = now
		if j.started.IsZero() {
			j.started = now
		}
		runMs = float64(now.Sub(j.started).Microseconds()) / 1000
		// The record lives on for status and result queries, which no
		// longer need the O(n²) input.
		j.spec.Matrix = nil
	}
	fp := j.fp
	j.mu.Unlock()

	s := j.svc
	switch {
	case to == StateRunning:
		if s.cfg.Store != nil {
			_ = s.cfg.Store.Append(store.Record{Kind: store.KindStarted, ID: j.id})
		}
		j.publish(Event{Type: EventStarted, State: StateRunning})
	case to == StateQueued:
		j.publish(Event{Type: EventQueued, State: StateQueued})
	default:
		j.cancel(nil)
		s.persistFinished(j, to, c)
		if to == StateDone && !c.cacheHit && fp != 0 {
			s.cacheStore(fp, c.res)
		}
		s.recordFinish(j, to, c, runMs)
		if from == StateQueued && (c.cacheHit || c.restored) {
			// Every consumer sees the same lifecycle shape, just without
			// sweeps.
			j.publish(Event{Type: EventStarted, State: StateRunning})
		}
		ev := Event{Type: terminalEvents[to], State: to, CacheHit: c.cacheHit}
		if c.err != nil {
			ev.Error = c.err.Error()
		}
		j.publish(ev)
		close(j.done)
	}
	return true
}

// abort cancels the job with cause: its context first (a running solve
// stops at its next sweep boundary), then the cancel transition.
func (j *Job) abort(cause error) bool {
	j.cancel(cause)
	return j.apply(change{ev: evCancel, err: cause})
}

// abortIfCanceled applies the cancel transition to a job whose context
// ended, with the context's cause, and reports whether it had ended.
func (j *Job) abortIfCanceled() bool {
	if j.ctx.Err() == nil {
		return false
	}
	j.abort(context.Cause(j.ctx))
	return true
}

// serveCached finishes a queued job from the result cache, reporting
// whether the cache held its result.
func (s *Service) serveCached(j *Job) bool {
	res, ok := s.cacheLookup(j.fp)
	return ok && j.apply(change{ev: evDone, res: res, cacheHit: true})
}

// publishSweep reports one completed sweep of the job's solve, solo or on
// a lane: the sweep event, then the test hook. It runs inside the solve and
// never blocks (slow subscribers drop, see events.go).
func (j *Job) publishSweep(p engine.SweepProgress) {
	j.publish(Event{Type: EventSweep, State: StateRunning, Sweep: &SweepEvent{
		Sweep:     p.Sweep,
		MaxRel:    p.MaxRel,
		OffNorm:   p.OffNorm,
		Rotations: p.Rotations,
	}})
	if sweepHook != nil {
		sweepHook(j, p)
	}
}
