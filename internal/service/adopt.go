package service

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// This file is the failover half of cluster replication: when a peer node
// dies, the cluster layer hands the records that node shipped here
// (store.SideLog) to Adopt, which replays them into THIS service exactly
// the way recover() replays the own journal after a crash — terminal jobs
// restore for status/result queries with their results warming the cache,
// live jobs re-enqueue and resume from their last replicated checkpoint.
// Adopted jobs keep their original node-qualified IDs (clients polling
// "job-b-7" after node b died find it here) but take fresh local sequence
// numbers, and their records are re-appended to the own journal — which
// both makes the adoption durable across this node's own crashes and, via
// the store's append observer, re-ships them to this node's replicas
// (chain replication: the adopted jobs stay replicated after the
// failover).

// AdoptStats summarizes one Adopt call.
type AdoptStats struct {
	// Terminal jobs restored with their recorded outcome.
	Terminal int
	// Live jobs re-enqueued (resuming from a checkpoint where one loaded).
	Live int
	// Skipped records: jobs already known here (by ID or idempotency key —
	// a client that failed over and resubmitted got there first), or
	// unreadable ones.
	Skipped int
	// Resumed counts the subset of Live that restored a checkpoint.
	Resumed int
}

// Adopt replays a dead peer's journal records into this service. loadCkpt,
// when non-nil, fetches the peer's last replicated checkpoint for a live
// job ID (nil error and non-nil checkpoint = resume point; store.
// ErrNoCheckpoint = start over). Safe to call on a running service;
// duplicate adoption of the same records is idempotent (second pass skips
// every ID). A closed service adopts nothing.
func (s *Service) Adopt(records []store.Record, loadCkpt func(id string) (*engine.Checkpoint, error)) AdoptStats {
	var stats AdoptStats
	_, order := foldRecords(records)
	sort.SliceStable(order, func(i, k int) bool { return order[i].seq < order[k].seq })

	now := time.Now()
	var adopted []*recoveredJob
	for _, r := range order {
		if r.state == "" && r.spec.Matrix == nil {
			fmt.Fprintf(os.Stderr, "service: adopt: job %s has no matrix payload, dropped\n", r.id)
			stats.Skipped++
			continue
		}
		var resume *engine.Checkpoint
		if r.state == "" && loadCkpt != nil {
			ck, err := loadCkpt(r.id)
			switch {
			case err == nil:
				resume = ck
			case !errors.Is(err, store.ErrNoCheckpoint):
				fmt.Fprintf(os.Stderr, "service: adopt: job %s checkpoint unreadable, restarting from scratch: %v\n", r.id, err)
			}
		}

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			stats.Skipped += len(order) - (stats.Terminal + stats.Live + stats.Skipped)
			return stats
		}
		if _, dup := s.jobs[r.id]; dup {
			s.mu.Unlock()
			stats.Skipped++
			continue
		}
		if r.key != "" {
			if _, dup := s.idem[r.key]; dup {
				// A failover client already resubmitted under the same key and
				// this node accepted it: that job is the survivor, the peer's
				// record would be a double execution.
				s.mu.Unlock()
				stats.Skipped++
				continue
			}
		}
		s.seq++
		r.seq = s.seq
		s.mu.Unlock()

		j := s.rebuildJob(r, now)
		if r.state == "" {
			if r.started {
				r.restarts++
				j.restarts = r.restarts
			}
			if resume != nil {
				j.resume = resume
				j.resumedFrom = resume.Sweep
				stats.Resumed++
			}
		}

		// Snapshot the restored result under the job lock once: the job is
		// about to become visible in s.jobs.
		j.mu.Lock()
		res := j.result
		j.mu.Unlock()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			stats.Skipped++
			continue
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if r.key != "" {
			s.idem[r.key] = j.id
		}
		switch r.state {
		case StateDone:
			s.metrics.RecoveredDone++
			if res != nil {
				s.metrics.TotalModeledMakespan += res.Makespan
			}
			stats.Terminal++
		case StateFailed:
			s.metrics.RecoveredFailed++
			stats.Terminal++
		case StateCanceled:
			s.metrics.RecoveredCanceled++
			stats.Terminal++
		case "":
			s.metrics.Submitted++
			j.publish(Event{Type: EventQueued, State: StateQueued})
			s.enqueueLocked(j)
			stats.Live++
		}
		s.evictOldJobsLocked()
		s.mu.Unlock()
		if r.state == StateDone && res != nil && s.cfg.CacheCap >= 0 && r.fp != 0 {
			s.cacheStore(r.fp, res)
		}
		adopted = append(adopted, r)

		// Make the adoption durable: the peer's records land in the own
		// journal verbatim (fresh seq lives only in memory; the ID's
		// original tail is renumbered again at the next recovery), and a
		// carried resume point is snapshotted under the job's ID so this
		// node's own crash resumes it too. The append observer re-ships
		// everything to this node's replicas.
		if s.cfg.Store != nil {
			for _, rec := range recordsFor(records, r.id) {
				if err := s.cfg.Store.Append(rec); err != nil {
					fmt.Fprintf(os.Stderr, "service: adopt: job %s record not journaled (adoption not durable): %v\n", r.id, err)
					break
				}
			}
			if resume != nil {
				if err := s.cfg.Store.SaveCheckpoint(r.id, resume); err != nil {
					fmt.Fprintf(os.Stderr, "service: adopt: job %s checkpoint not saved: %v\n", r.id, err)
				}
			}
		}
	}
	if stats.Live > 0 {
		s.cond.Broadcast()
	}
	if stats.Terminal+stats.Live > 0 {
		fmt.Fprintf(os.Stderr, "service: adopted %d jobs (%d terminal, %d live, %d resuming, %d skipped)\n",
			stats.Terminal+stats.Live, stats.Terminal, stats.Live, stats.Resumed, stats.Skipped)
	}
	return stats
}

// recordsFor filters one job's records from a replayed stream, preserving
// order.
func recordsFor(records []store.Record, id string) []store.Record {
	var out []store.Record
	for _, rec := range records {
		if rec.ID == id {
			out = append(out, rec)
		}
	}
	return out
}
