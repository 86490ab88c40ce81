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
	pos      State // lifecycle position after the records replayed so far
	restarts int
	result   []byte
	errMsg   string
}

// live reports whether the job still has to run.
func (r *recoveredJob) live() bool { return !r.pos.terminal() }

// foldRecords replays a journal record stream through the lifecycle table
// into per-job accumulators, in journal order: submitted, started and
// finished records are the submit, start and done/fail/cancel events. A
// record the table refuses (a second submitted record, a started or
// finished record for a job not yet submitted or already terminal) is
// skipped and named on stderr, so a damaged journal still boots with the
// first legal outcome of each job. A started record for a running job is
// not one of them: a loan handed back unexecuted and started again writes
// two, because requeues are not journaled. Shared by crash recovery (the
// own journal) and Adopt (a dead peer's shipped journal tail).
func foldRecords(records []store.Record) (map[string]*recoveredJob, []*recoveredJob) {
	byID := make(map[string]*recoveredJob)
	var order []*recoveredJob
	for _, rec := range records {
		r := byID[rec.ID]
		if rec.Kind == store.KindRestarted {
			if r != nil && rec.Restarts > r.restarts {
				r.restarts = rec.Restarts
			}
			continue
		}
		from := stateUnsubmitted
		if r != nil {
			from = r.pos
		}
		ev, known := recordEvent(rec)
		if known && ev == evStart && from == StateRunning {
			continue
		}
		to, legal := next(from, ev)
		if !known || !legal {
			fmt.Fprintf(os.Stderr, "service: recovery: job %s: %s record skipped (job is %s)\n", rec.ID, rec.Kind, from)
			continue
		}
		switch rec.Kind {
		case store.KindSubmitted:
			spec, err := decodeSpecBlob(rec.Spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "service: recovery: job %s spec unreadable, dropped: %v\n", rec.ID, err)
				continue
			}
			r = &recoveredJob{id: rec.ID, key: rec.Key, backend: rec.Backend, fp: rec.Fp, specRaw: rec.Spec, spec: spec}
			r.seq, _ = seqOfID(rec.ID)
			byID[rec.ID] = r
			order = append(order, r)
		case store.KindFinished:
			r.result, r.errMsg = rec.Result, rec.Err
		}
		r.pos = to
	}
	return byID, order
}

// recordEvent maps a journal record to the lifecycle event it records.
func recordEvent(rec store.Record) (event, bool) {
	switch rec.Kind {
	case store.KindSubmitted:
		return evSubmit, true
	case store.KindStarted:
		return evStart, true
	case store.KindFinished:
		ev, ok := finishEvents[State(rec.State)]
		return ev, ok
	}
	return 0, false
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

	recovered, resumed := 0, 0
	live := make(map[string]bool)
	for _, r := range order {
		if r.seq == 0 {
			continue // unparseable ID; cannot preserve ordering guarantees
		}
		if r.live() && r.spec.Matrix == nil {
			// A live job needs its input to run again; a journal missing it
			// (hand-edited or cross-version) cannot be honored.
			fmt.Fprintf(os.Stderr, "service: recovery: job %s has no matrix payload, dropped\n", r.id)
			continue
		}
		// A checkpoint snapshot sets a live job's resume point, whether or
		// not its run got far enough to be journaled as started.
		var ck *engine.Checkpoint
		if r.live() {
			var err error
			if ck, err = st.LoadCheckpoint(r.id); err == nil {
				resumed++
			} else if !errors.Is(err, store.ErrNoCheckpoint) {
				fmt.Fprintf(os.Stderr, "service: recovery: job %s checkpoint unreadable, restarting from scratch: %v\n", r.id, err)
				_ = st.DeleteCheckpoint(r.id)
			}
		}
		s.registerRestored(s.rebuildJob(r, ck), r.live())
		live[r.id] = r.live()
		recovered++
	}
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

// rebuildJob materializes one replayed job. It is born queued, like a
// submitted job, with its queued event. A live job that the journal saw
// running counts a restart, and resumes from ck when that is non-nil; a
// terminal job takes its journaled outcome through the lifecycle as a
// restored transition: no terminal record, recovered_* counters, its
// result into the cache, and a started → terminal event pair.
func (s *Service) rebuildJob(r *recoveredJob, ck *engine.Checkpoint) *Job {
	if r.pos == StateRunning {
		r.restarts++
	}
	n := r.spec.Dim // placeholder when neither the matrix nor its size survived
	if r.spec.Matrix != nil {
		n = r.spec.Matrix.Rows
	} else if v := int(matrixNFromSpec(r.specRaw)); v > 0 {
		n = v
	}
	j := s.newJob(context.Background(), r.spec, n, r.backend, r.fp, r.key)
	j.id, j.seq, j.restarts, j.resume = r.id, r.seq, r.restarts, ck
	if ck != nil {
		j.resumedFrom = ck.Sweep
	}
	j.publish(Event{Type: EventQueued, State: StateQueued})
	if r.live() {
		return j
	}
	var res *Result
	if len(r.result) > 0 {
		res = new(Result)
		if json.Unmarshal(r.result, res) != nil {
			res = nil
		}
	}
	if r.pos == StateDone && res == nil {
		// A done record without a readable result cannot satisfy Result();
		// surface it as a failure rather than a nil result.
		r.pos = StateFailed
		r.errMsg = "result lost in recovery"
	}
	c := change{ev: finishEvents[r.pos], res: res, restored: true}
	if r.errMsg != "" {
		c.err = errors.New(r.errMsg)
	} else if r.pos != StateDone {
		c.err = fmt.Errorf("service: job %s %s before restart (no cause recorded)", r.id, r.pos)
	}
	j.apply(c)
	return j
}

// registerRestored makes a rebuilt job visible: the job table, the listing
// order, its idempotency key and, for a live job, the queue — it counts as
// submitted in this boot, while a restored terminal job was counted by the
// boot that accepted it. Shared by recovery and Adopt; it registers
// nothing and reports false once the service closed.
func (s *Service) registerRestored(j *Job, live bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.seq = max(s.seq, j.seq)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if j.idemKey != "" {
		s.idem[j.idemKey] = j.id
	}
	if live {
		s.metrics.Submitted++
		s.enqueueLocked(j)
	}
	s.evictOldJobsLocked()
	return true
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
		if !r.live() {
			sub.Spec = slimSpec(r)
		}
		recs = append(recs, sub)
		if !r.live() {
			recs = append(recs, store.Record{Kind: store.KindFinished, ID: r.id, State: string(r.pos), Result: r.result, Err: r.errMsg})
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
