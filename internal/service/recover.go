package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// This file is the service's crash-recovery path: New replays the durable
// store's journal before any worker starts, rebuilding the job table the
// previous process lost.
//
// Replay policy, per job (in submission order):
//
//   - terminal (done/failed/canceled recorded): the record is restored for
//     status/result queries, done results warm the result cache under the
//     journaled fingerprint, and the idempotency key maps back to the job;
//   - queued (submitted, never started): re-enqueued as-is;
//   - in-flight (started, no terminal record): re-enqueued with its
//     restart counter bumped; if a checkpoint snapshot exists the next run
//     resumes from it (engine.Problem.Restore) instead of starting over.
//     A job canceled BY a shutdown is deliberately journaled as still
//     in-flight (see persistFinished), so a graceful drain behaves like a
//     crash here: the job survives.
//
// After replay the journal is compacted to exactly the retained jobs, so
// restart cycles do not grow it without bound.

// recoveredJob accumulates one job's journal records during replay.
type recoveredJob struct {
	id       string
	seq      uint64
	key      string
	backend  string
	fp       uint64
	specRaw  []byte
	spec     JobSpec
	started  bool
	restarts int
	state    State // terminal state, "" while live
	result   []byte
	errMsg   string
}

// foldRecords folds a journal record stream into per-job accumulators:
// one recoveredJob per submitted ID, started/restart/terminal markers
// applied in replay order. Shared by crash recovery (the own journal) and
// Adopt (a dead peer's shipped journal tail).
func foldRecords(records []store.Record) (map[string]*recoveredJob, []*recoveredJob) {
	byID := make(map[string]*recoveredJob)
	var order []*recoveredJob
	for _, rec := range records {
		switch rec.Kind {
		case store.KindSubmitted:
			if _, dup := byID[rec.ID]; dup {
				continue // corrupt double-submit; first wins
			}
			spec, err := decodeSpecBlob(rec.Spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "service: recovery: job %s spec unreadable, dropped: %v\n", rec.ID, err)
				continue
			}
			r := &recoveredJob{id: rec.ID, key: rec.Key, backend: rec.Backend, fp: rec.Fp, specRaw: rec.Spec, spec: spec}
			r.seq, _ = seqOfID(rec.ID)
			byID[rec.ID] = r
			order = append(order, r)
		case store.KindStarted:
			if r := byID[rec.ID]; r != nil {
				r.started = true
			}
		case store.KindRestarted:
			if r := byID[rec.ID]; r != nil && rec.Restarts > r.restarts {
				r.restarts = rec.Restarts
			}
		case store.KindFinished:
			if r := byID[rec.ID]; r != nil && r.state == "" {
				r.state = State(rec.State)
				r.result = rec.Result
				r.errMsg = rec.Err
			}
		}
	}
	return byID, order
}

// recover replays the journal into the service. Called from New, before
// workers start — no locks needed yet, but taken anyway where shared state
// is touched so the code stays correct if recovery ever runs later.
func (s *Service) recover() {
	st := s.cfg.Store
	byID, order := foldRecords(st.Records())
	// Journal order breaks seq ties: a journal that absorbed adopted peer
	// jobs (cluster mode re-appends them under their original IDs) can hold
	// IDs from different nodes with colliding numeric tails, and the bump
	// below renumbers the later one so s.seq stays a strict total order and
	// future submissions never collide with a restored job.
	sort.SliceStable(order, func(i, k int) bool { return order[i].seq < order[k].seq })
	var prev uint64
	for _, r := range order {
		if r.seq == 0 {
			continue // unparseable ID; dropped below
		}
		if r.seq <= prev {
			r.seq = prev + 1
		}
		prev = r.seq
	}

	now := time.Now()
	recovered, resumed := 0, 0
	for _, r := range order {
		if r.seq == 0 {
			continue // unparseable ID; cannot preserve ordering guarantees
		}
		if r.state == "" && r.spec.Matrix == nil {
			// A live job needs its input to run again; a journal missing it
			// (hand-edited or cross-version) cannot be honored.
			fmt.Fprintf(os.Stderr, "service: recovery: job %s has no matrix payload, dropped\n", r.id)
			continue
		}
		j := s.rebuildJob(r, now)
		if r.state == "" {
			// Live job: re-enqueue. A lost run bumps the restart counter;
			// a checkpoint snapshot (whether or not the run got far enough
			// to be marked started) sets the resume point.
			if r.started {
				r.restarts++
				j.restarts = r.restarts
			}
			if ck, err := st.LoadCheckpoint(r.id); err == nil {
				j.resume = ck
				j.resumedFrom = ck.Sweep
				resumed++
			} else if !errors.Is(err, store.ErrNoCheckpoint) {
				fmt.Fprintf(os.Stderr, "service: recovery: job %s checkpoint unreadable, restarting from scratch: %v\n", r.id, err)
				_ = st.DeleteCheckpoint(r.id)
			}
		}
		// Snapshot the restored result under the job lock once: the job is
		// about to become visible in s.jobs.
		j.mu.Lock()
		res := j.result
		j.mu.Unlock()
		s.mu.Lock()
		if r.seq > s.seq {
			s.seq = r.seq
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if r.key != "" {
			s.idem[r.key] = j.id
		}
		// Restored terminal jobs count under the recovered_* counters, NOT
		// completed/failed/canceled: the this-boot counters feed jobs_per_sec
		// (completions divided by THIS process's uptime), and folding a
		// previous life's work into them inflated the reported rate by
		// orders of magnitude right after every restart. Their modeled
		// makespan stays in the aggregate — that work really ran. Only jobs
		// re-entering this boot's pipeline count as submitted here; the
		// recovered terminals were counted by the boot that accepted them.
		switch r.state {
		case StateDone:
			s.metrics.RecoveredDone++
			if res != nil {
				s.metrics.TotalModeledMakespan += res.Makespan
			}
		case StateFailed:
			s.metrics.RecoveredFailed++
		case StateCanceled:
			s.metrics.RecoveredCanceled++
		case "":
			s.metrics.Submitted++
			j.publish(Event{Type: EventQueued, State: StateQueued})
			s.enqueueLocked(j)
		}
		s.mu.Unlock()
		if r.state == StateDone && res != nil && s.cfg.CacheCap >= 0 && r.fp != 0 {
			s.cacheStore(r.fp, res)
		}
		recovered++
	}

	s.mu.Lock()
	s.evictOldJobsLocked()
	live := make(map[string]bool)
	for id, j := range s.jobs {
		j.mu.Lock()
		terminal := j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
		j.mu.Unlock()
		if !terminal {
			live[id] = true
		}
	}
	s.mu.Unlock()
	if err := s.compactJournal(byID); err != nil {
		// Pre-swap failures leave the grown journal in place and appends
		// keep working; post-swap adoption failures poison the store and
		// every new durable submission will be refused (store.Compact).
		fmt.Fprintf(os.Stderr, "service: recovery: journal compaction failed: %v\n", err)
	}
	// Sweep snapshot orphans: a crash between a terminal journal append
	// and its DeleteCheckpoint (or an eviction) leaves a .jckp no live job
	// owns; without this, disk grows across crash cycles.
	if _, err := st.PruneCheckpoints(func(id string) bool { return live[id] }); err != nil {
		fmt.Fprintf(os.Stderr, "service: recovery: checkpoint prune failed: %v\n", err)
	}
	if recovered > 0 {
		fmt.Fprintf(os.Stderr, "service: recovered %d jobs from %s (%d resuming from checkpoints)\n", recovered, st.Dir(), resumed)
	}
}

// rebuildJob materializes one journal job into a tracked *Job.
func (s *Service) rebuildJob(r *recoveredJob, now time.Time) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &Job{
		id:        r.id,
		spec:      r.spec,
		n:         r.spec.Dim, // placeholder; fixed below from the matrix
		backend:   r.backend,
		fp:        r.fp,
		priority:  r.spec.Priority,
		tenant:    tenantName(r.spec.Tenant),
		seq:       r.seq,
		ctx:       ctx,
		cancel:    cancel,
		svc:       s,
		state:     StateQueued,
		submitted: now,
		done:      make(chan struct{}),
		index:     -1,
		idemKey:   r.key,
		restarts:  r.restarts,
	}
	if r.spec.Matrix != nil {
		j.n = r.spec.Matrix.Rows
	} else if n := int(matrixNFromSpec(r.specRaw)); n > 0 {
		j.n = n
	}
	j.shape = laneShapeOf(j.n, r.spec)
	if r.state == "" {
		return j
	}
	// Terminal job: restore the record without going through finish (no
	// terminal journaling, no cancel-cause semantics — it already ended in
	// a previous life). The event history is resynthesized so a subscriber
	// still observes a complete queued → started → terminal stream.
	j.state = r.state
	j.started = now
	j.finished = now
	if len(r.result) > 0 {
		var res Result
		if err := json.Unmarshal(r.result, &res); err == nil {
			j.result = &res
		}
	}
	if r.state == StateDone && j.result == nil {
		// A done record without a readable result cannot satisfy Result();
		// surface it as a failure rather than a nil result.
		j.state = StateFailed
		r.state = StateFailed
		r.errMsg = "result lost in recovery"
	}
	if r.errMsg != "" {
		j.err = errors.New(r.errMsg)
	} else if r.state == StateFailed || r.state == StateCanceled {
		j.err = fmt.Errorf("service: job %s %s before restart (no cause recorded)", r.id, r.state)
	}
	j.spec.Matrix = nil
	cancel(nil)
	j.publish(Event{Type: EventQueued, State: StateQueued})
	j.publish(Event{Type: EventStarted, State: StateRunning})
	ev := Event{Type: EventDone, State: r.state}
	switch r.state {
	case StateFailed:
		ev.Type = EventFailed
	case StateCanceled:
		ev.Type = EventCanceled
	}
	if j.err != nil {
		ev.Error = j.err.Error()
	}
	j.publish(ev)
	close(j.done)
	return j
}

// matrixNFromSpec digs the matrix size out of a spec JSON whose matrix was
// stripped by compaction (terminal jobs keep {"Rows":n} metadata only when
// the full payload was dropped — see compactJournal).
func matrixNFromSpec(raw []byte) int64 {
	var slim struct {
		N int64 `json:"__n"`
	}
	if json.Unmarshal(raw, &slim) == nil {
		return slim.N
	}
	return 0
}

// compactJournal rewrites the journal to exactly the retained jobs:
// terminal jobs keep a slim spec (the matrix payload is replaced by its
// size — nothing re-runs them, and their fingerprint is already
// journaled), live jobs keep their full spec plus a restart marker.
func (s *Service) compactJournal(byID map[string]*recoveredJob) error {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	var recs []store.Record
	for _, id := range ids {
		r := byID[id]
		if r == nil {
			continue
		}
		sub := store.Record{
			Kind:    store.KindSubmitted,
			ID:      r.id,
			Key:     r.key,
			Backend: r.backend,
			Fp:      r.fp,
			Spec:    r.specRaw,
		}
		if r.state != "" {
			sub.Spec = slimSpec(r)
		}
		recs = append(recs, sub)
		if r.state != "" {
			recs = append(recs, store.Record{Kind: store.KindFinished, ID: r.id, State: string(r.state), Result: r.result, Err: r.errMsg})
			continue
		}
		if r.restarts > 0 {
			recs = append(recs, store.Record{Kind: store.KindRestarted, ID: r.id, Restarts: r.restarts})
		}
	}
	return s.cfg.Store.Compact(recs)
}

// slimSpec strips the matrix payload from a terminal job's journaled
// spec, keeping the fields Status reports plus the original size under
// "__n".
func slimSpec(r *recoveredJob) []byte {
	spec := r.spec
	n := 0
	if spec.Matrix != nil {
		n = spec.Matrix.Rows
	} else if v := int(matrixNFromSpec(r.specRaw)); v > 0 {
		n = v
	}
	spec.Matrix = nil
	data, err := json.Marshal(spec)
	if err != nil || n == 0 {
		return data
	}
	// Graft the size marker onto the object.
	trimmed := strings.TrimSuffix(strings.TrimSpace(string(data)), "}")
	return []byte(trimmed + `,"__n":` + strconv.Itoa(n) + "}")
}

// ckptWriter persists a running job's sweep checkpoints off the solve's
// critical path: the engine hook offers each checkpoint without blocking
// (a newer one replaces an unwritten older one — the latest resume point
// is the only one worth keeping), and a single goroutine writes them,
// timing each save into the cadence estimate (cadence.go).
// close drains the writer, so when it returns the last offered checkpoint
// is on disk (or the store reported why not).
type ckptWriter struct {
	st   *store.Store
	cost *ckptCost
	id   string
	key  cadenceKey // the job's shape
	ch   chan *engine.Checkpoint
	done chan struct{}
}

func newCkptWriter(s *Service, id string, key cadenceKey) *ckptWriter {
	w := &ckptWriter{st: s.cfg.Store, cost: &s.ckpt, id: id, key: key, ch: make(chan *engine.Checkpoint, 1), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for ck := range w.ch {
			start := time.Now()
			if err := w.st.SaveCheckpoint(w.id, ck); err != nil {
				fmt.Fprintf(os.Stderr, "service: job %s: checkpoint write failed: %v\n", w.id, err)
				continue
			}
			w.cost.observeSave(w.key, time.Since(start))
		}
	}()
	return w
}

// offer hands a checkpoint to the writer without ever blocking the solve:
// if the previous one is still unwritten it is replaced.
func (w *ckptWriter) offer(ck *engine.Checkpoint) {
	for {
		select {
		case w.ch <- ck:
			return
		default:
		}
		select {
		case <-w.ch: // drop the stale unwritten checkpoint
		default:
		}
	}
}

// close stops the writer after draining any pending checkpoint.
func (w *ckptWriter) close() {
	close(w.ch)
	<-w.done
}
