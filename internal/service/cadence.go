package service

import (
	"math"
	"sync"
	"time"

	"repro/internal/store"
)

// Checkpoint cadence by cost (DESIGN.md §10). With Config.CheckpointEvery
// == 0 the service picks each durable job's cadence once, at job start,
// from three estimates kept per exact job shape (backend, dim, n):
//
//   - ŝ, the predicted sweep wall time: an EWMA of a finished run's
//     Result.WallMs / Result.Sweeps;
//   - Ŝ, the predicted sweeps per run: an EWMA of Result.Sweeps;
//   - δ̂, the predicted checkpoint cost: an EWMA of SaveCheckpoint wall
//     time (encode, write, both fsyncs, the replication observer).
//
// every = ⌈δ̂ / (ckptOverhead·ŝ)⌉ is Young's first-order rule with the save
// cost measured: saves take at most ckptOverhead of the predicted solve
// time, and a crash loses at most every·ŝ ≤ δ̂/ckptOverhead + ŝ of work.
// The rule is capped at ⌈Ŝ/2⌉ so a job of the predicted length still
// saves once, half way: δ̂ is sampled only when a job saves, and without
// the cap one slow save could push every past every later job's length,
// after which no save would ever bring the estimate back. The engine
// receives a plain CheckpointEvery, so its checkpoint predicate stays a
// pure function of the sweep number. A shape not yet measured (a fresh
// process, or a new size) checkpoints every sweep; its first durable job
// calibrates the rest.

// ckptOverhead is the share of predicted solve time by-cost checkpointing
// may spend on saves.
const ckptOverhead = 0.05

// costAlpha is the EWMA weight of the newest cost sample.
const costAlpha = 0.25

// byCostEvery is the cadence rule: the checkpoint interval, in sweeps, for
// a predicted sweep time and checkpoint cost (any common unit) and a
// predicted number of sweeps per run. A missing estimate (<= 0) means
// cold start: every sweep.
func byCostEvery(sweep, save, sweeps float64) int {
	if !(sweep > 0) || !(save > 0) || !(sweeps > 0) {
		return 1
	}
	half := math.Ceil(sweeps / 2)
	k := math.Ceil(save / (ckptOverhead * sweep))
	if !(k < half) {
		k = half
	}
	return max(1, int(k))
}

// cadenceKey names one job shape the cadence estimates are kept for.
type cadenceKey struct {
	backend string
	dim, n  int
}

// shapeCost holds one shape's estimates (0 = no sample yet).
type shapeCost struct {
	sweepNs float64 // wall ns per sweep
	sweeps  float64 // sweeps per run
	saveNs  float64 // wall ns per SaveCheckpoint
}

// ckptCost holds the cadence estimates and the checkpoint counters.
type ckptCost struct {
	mu     sync.Mutex
	shapes map[cadenceKey]shapeCost // guarded by mu
	saved  int64                    // guarded by mu
	bytes  int64                    // guarded by mu
}

// ewma folds a sample into an estimate (0 = none yet).
func ewma(old, sample float64) float64 {
	if old == 0 {
		return sample
	}
	return old + costAlpha*(sample-old)
}

// updateLocked applies f to k's estimates. Caller holds c.mu.
func (c *ckptCost) updateLocked(k cadenceKey, f func(*shapeCost)) {
	if c.shapes == nil {
		c.shapes = make(map[cadenceKey]shapeCost)
	}
	sc := c.shapes[k]
	f(&sc)
	c.shapes[k] = sc
}

// observeRun records a finished, non-resumed run of shape k. Lane results
// carry the lane's wall time, so a lane member that converged before its
// mates overstates its sweep time, which errs towards saving more often.
func (c *ckptCost) observeRun(k cadenceKey, res *Result) {
	if res.Sweeps < 1 || !(res.WallMs > 0) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updateLocked(k, func(sc *shapeCost) {
		sc.sweepNs = ewma(sc.sweepNs, res.WallMs*1e6/float64(res.Sweeps))
		sc.sweeps = ewma(sc.sweeps, float64(res.Sweeps))
	})
}

// observeSave records one successful SaveCheckpoint of a job of shape k.
func (c *ckptCost) observeSave(k cadenceKey, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.saved++
	c.bytes += k.imageSize()
	if d > 0 {
		c.updateLocked(k, func(sc *shapeCost) { sc.saveNs = ewma(sc.saveNs, float64(d.Nanoseconds())) })
	}
}

// every picks the by-cost cadence of a job of shape k.
func (c *ckptCost) every(k cadenceKey) int {
	c.mu.Lock()
	sc := c.shapes[k]
	c.mu.Unlock()
	return byCostEvery(sc.sweepNs, sc.saveNs, sc.sweeps)
}

// counters returns the checkpoints saved and their total image bytes.
func (c *ckptCost) counters() (saved, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saved, c.bytes
}

// checkpointable reports whether the engine can cut a run of spec at
// sweep boundaries. Pipelined and fixed-sweep runs have none.
func checkpointable(spec JobSpec) bool {
	return !spec.Pipelined && spec.FixedSweeps == 0
}

// checkpoints reports whether a job's run persists checkpoints: a Store is
// configured, checkpointing is not disabled, and the run is checkpointable.
func (s *Service) checkpoints(spec JobSpec) bool {
	return s.cfg.Store != nil && s.cfg.CheckpointEvery >= 0 && checkpointable(spec)
}

// checkpointEvery resolves the cadence a durable job of shape k runs
// under: Config.CheckpointEvery when positive, by cost when 0.
func (s *Service) checkpointEvery(k cadenceKey) int {
	if s.cfg.CheckpointEvery > 0 {
		return s.cfg.CheckpointEvery
	}
	return s.ckpt.every(k)
}

// shapeOf is the cadence key of a job of spec run on backend.
func shapeOf(backend string, spec JobSpec) cadenceKey {
	return cadenceKey{backend: backend, dim: spec.Dim, n: spec.Matrix.Rows}
}

// imageSize is the byte size of every checkpoint image of shape k.
func (k cadenceKey) imageSize() int64 {
	return store.CheckpointSize(k.dim, k.n, k.n)
}
