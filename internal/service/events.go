package service

import (
	"time"
)

// This file is the per-job progress-event layer: every job carries a typed
// event stream (queued → started → per-sweep progress → terminal) fed by
// the engine's OnSweep hook, fanned out to any number of subscribers with
// bounded buffers. The stream is the substrate of the client package's
// JobHandle.Events and the HTTP v2 /jobs/{id}/events endpoint.
//
// Fan-out policy (documented in DESIGN.md, "Client API"):
//
//   - every job keeps a bounded in-memory event history; subscribers attach
//     at any time and first replay the history, so a subscriber that
//     arrives after the job started (or even finished) still observes the
//     full queued → … → terminal sequence;
//   - live delivery never blocks the solve: each subscriber has a bounded
//     channel, and when it is full the oldest buffered event is dropped to
//     make room for the newest (slow-subscriber drop). The terminal event
//     is therefore never lost — at worst intermediate sweep events are —
//     and each delivered event carries the count of events dropped
//     immediately before it;
//   - the subscriber channel is closed right after the terminal event, so
//     "range until close" is the complete consumption loop.

// EventType tags one entry of a job's progress stream.
type EventType string

const (
	// EventQueued is emitted once at submission.
	EventQueued EventType = "queued"
	// EventStarted is emitted when a worker picks the job up (cache hits
	// included — they start and finish back to back).
	EventStarted EventType = "started"
	// EventSweep is emitted after every completed sweep of the solve, with
	// the Sweep payload filled in.
	EventSweep EventType = "sweep"
	// EventDone, EventFailed and EventCanceled are the terminal events; the
	// subscriber channel closes right after one of them.
	EventDone     EventType = "done"
	EventFailed   EventType = "failed"
	EventCanceled EventType = "canceled"
)

// Terminal reports whether the event ends its job's stream.
func (t EventType) Terminal() bool {
	return t == EventDone || t == EventFailed || t == EventCanceled
}

// SweepEvent is the per-sweep progress payload of an EventSweep: the
// globally reduced convergence statistics of one completed sweep.
type SweepEvent struct {
	// Sweep is the 1-based count of completed sweeps.
	Sweep int `json:"sweep"`
	// MaxRel is the sweep's largest relative off-diagonal value; OffNorm is
	// the running off-norm estimate sqrt(Σγ²); Rotations counts the sweep's
	// applied rotations.
	MaxRel    float64 `json:"max_rel"`
	OffNorm   float64 `json:"off_norm"`
	Rotations int     `json:"rotations"`
}

// Event is one entry of a job's progress stream.
type Event struct {
	// Seq numbers the job's events from 1; it is strictly increasing even
	// across drops, so gaps are detectable.
	Seq int `json:"seq"`
	// Type tags the event; State is the job state after it.
	Type  EventType `json:"type"`
	State State     `json:"state"`
	JobID string    `json:"job_id"`
	// Time is the event's wall-clock timestamp.
	Time time.Time `json:"time"`
	// Sweep carries the per-sweep payload of EventSweep entries.
	Sweep *SweepEvent `json:"sweep,omitempty"`
	// CacheHit marks a terminal EventDone served from the result cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Error carries the failure or cancellation cause of terminal events.
	Error string `json:"error,omitempty"`
	// Dropped counts the events this subscriber lost immediately before
	// this one (slow-subscriber drop); 0 on a replayed history entry.
	Dropped int `json:"dropped,omitempty"`
}

// eventHistoryCap bounds the per-job event history. queued/started/terminal
// events are always retained; past the cap the oldest sweep events are
// trimmed, so pathological MaxSweeps settings cannot grow a job record
// without bound.
const eventHistoryCap = 512

// defaultSubscriberBuf is the live-event buffer of a subscriber that asked
// for none.
const defaultSubscriberBuf = 64

// subscriber is one attached event consumer.
type subscriber struct {
	ch      chan Event
	dropped int // events dropped since the last successful delivery
}

// deliver hands an event to the subscriber without ever blocking: when the
// buffer is full the oldest buffered event is dropped to make room, so the
// newest events (and in particular the terminal one) always land. Called
// only under the job's event lock — deliveries are serialized.
func (s *subscriber) deliver(ev Event) {
	ev.Dropped = s.dropped
	select {
	case s.ch <- ev:
		s.dropped = 0
		return
	default:
	}
	// Buffer full: evict the oldest buffered event. The racing consumer may
	// drain the channel between the two selects; both arms are non-blocking
	// so delivery still cannot stall the solve.
	select {
	case <-s.ch:
		s.dropped++
		ev.Dropped = s.dropped
	default:
	}
	select {
	case s.ch <- ev:
		s.dropped = 0
	default:
		s.dropped++
	}
}

// jobEvents is a job's event history plus its live subscribers. It has its
// own lock (separate from Job.mu) so event fan-out never contends with
// status snapshots, and so Subscribe's replay-then-register is atomic with
// respect to publishes.
type jobEvents struct {
	history []Event
	subs    []*subscriber
	seq     int
	closed  bool // terminal event published; no more subscribers registered
}

// publish appends an event to the history and delivers it to every
// subscriber; terminal events close every subscriber channel afterwards.
// Callers pass ev with Type/State/Sweep/CacheHit/Error set; Seq and Time
// are stamped here. Publishes for one job are serialized by its lifecycle
// (submit → worker → node-0 sweep hook → terminal transition), and the
// event lock makes them atomic against Subscribe.
func (j *Job) publish(ev Event) {
	ev.JobID = j.id
	ev.Time = time.Now()
	j.evMu.Lock()
	defer j.evMu.Unlock()
	if j.ev.closed {
		return // the terminal transition is exactly-once; late hooks land here
	}
	j.ev.seq++
	ev.Seq = j.ev.seq
	j.ev.history = appendBounded(j.ev.history, ev)
	for _, s := range j.ev.subs {
		s.deliver(ev)
	}
	if ev.Type.Terminal() {
		for _, s := range j.ev.subs {
			close(s.ch)
		}
		j.ev.subs = nil
		j.ev.closed = true
	}
}

// appendBounded appends to the event history, trimming the oldest sweep
// event once the cap is reached (lifecycle events are always retained).
func appendBounded(history []Event, ev Event) []Event {
	if len(history) >= eventHistoryCap {
		for i, old := range history {
			if old.Type == EventSweep {
				history = append(history[:i], history[i+1:]...)
				break
			}
		}
	}
	return append(history, ev)
}

// Subscribe attaches an event consumer to the job: the returned channel
// first replays the job's full event history (so the queued → started → …
// prefix is never missed, however late the subscription) and then streams
// live events, closing right after the terminal one. buf bounds the live
// buffer (<=0 selects a default); a slow consumer loses the oldest
// buffered events, never the terminal one. The returned stop function
// detaches and closes the channel early; it is idempotent and safe after
// the job finished.
func (j *Job) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = defaultSubscriberBuf
	}
	j.evMu.Lock()
	defer j.evMu.Unlock()
	// The replayed history must fit without blocking, on top of the live
	// buffer the caller asked for.
	ch := make(chan Event, len(j.ev.history)+buf)
	for _, ev := range j.ev.history {
		ev.Dropped = 0
		ch <- ev
	}
	if j.ev.closed {
		close(ch)
		return ch, func() {}
	}
	sub := &subscriber{ch: ch}
	j.ev.subs = append(j.ev.subs, sub)
	return ch, func() {
		j.evMu.Lock()
		defer j.evMu.Unlock()
		for i, s := range j.ev.subs {
			if s == sub {
				j.ev.subs = append(j.ev.subs[:i], j.ev.subs[i+1:]...)
				close(sub.ch)
				return
			}
		}
	}
}

// Subscribers returns the number of attached live subscribers (0 once the
// job is terminal) — introspection for tests and the HTTP layer.
func (j *Job) Subscribers() int {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	return len(j.ev.subs)
}

// Events returns the job's full event history so far (a copy).
func (j *Job) Events() []Event {
	j.evMu.Lock()
	defer j.evMu.Unlock()
	return append([]Event(nil), j.ev.history...)
}
