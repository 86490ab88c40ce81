package service

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// TestCheckpointCadenceRule pins the pure cadence function: cold start
// checkpoints every sweep; otherwise the chosen k keeps saves within
// ckptOverhead of the predicted solve time and lost work within
// save/ckptOverhead + one sweep, unless that would leave a run of the
// predicted length no save, in which case it saves once half way.
func TestCheckpointCadenceRule(t *testing.T) {
	const ms = 1e6 // ns
	for _, tc := range []struct {
		name                string
		sweep, save, sweeps float64
		want                int
	}{
		{"cold: nothing measured", 0, 0, 0, 1},
		{"cold: no save measured", 20 * ms, 0, 13, 1},
		{"cold: no sweep measured", 0, 8 * ms, 13, 1},
		{"cold: no run measured", 20 * ms, 8 * ms, 0, 1},
		{"NaN estimate", math.NaN(), 8 * ms, 13, 1},
		{"remote-durable sizing, long run", 21.8 * ms, 7.95 * ms, 40, 8},
		{"remote-durable sizing, 13-sweep run", 21.8 * ms, 7.95 * ms, 13, 7},
		{"exact multiple", 20 * ms, 2 * ms, 40, 2},
		{"save far below 5% of a sweep", 20 * ms, 0.01 * ms, 13, 1},
		{"very long sweeps", 10_000 * ms, 8 * ms, 13, 1},
		{"very short sweeps", 0.001 * ms, 8 * ms, 1e6, 160_000},
		{"slow save: still once half way", 2 * ms, 100 * ms, 13, 7},
		{"degenerate sweep", 1e-300, 8 * ms, 13, 7},
		{"one-sweep runs", 20 * ms, 100 * ms, 1, 1},
	} {
		got := byCostEvery(tc.sweep, tc.save, tc.sweeps)
		if got != tc.want {
			t.Errorf("%s: byCostEvery(%g, %g, %g) = %d, want %d", tc.name, tc.sweep, tc.save, tc.sweeps, got, tc.want)
		}
		if !(tc.sweep > 0) || !(tc.save > 0) || !(tc.sweeps > 0) {
			continue
		}
		half := int(math.Ceil(tc.sweeps / 2))
		if got > half {
			t.Errorf("%s: k=%d skips the save half way through a %g-sweep run", tc.name, got, tc.sweeps)
		}
		if got == half {
			continue // capped: one save per run, whatever it costs
		}
		if got > 1 && tc.save/(float64(got)*tc.sweep) > ckptOverhead*(1+1e-12) {
			t.Errorf("%s: k=%d spends %.3f of solve time on saves, bound %.2f", tc.name, got, tc.save/(float64(got)*tc.sweep), ckptOverhead)
		}
		if lost, bound := float64(got)*tc.sweep, tc.save/ckptOverhead+tc.sweep; lost > bound*(1+1e-12) {
			t.Errorf("%s: k=%d loses up to %g ns of work, bound %g", tc.name, got, lost, bound)
		}
	}
}

// TestCheckpointCadenceEstimates pins the estimates behind the rule: they
// are kept per exact shape, so one shape's samples never set another's
// cadence, and a slow save cannot stop a shape from saving, so fresh save
// samples bring its cadence back.
func TestCheckpointCadenceEstimates(t *testing.T) {
	const ms = time.Millisecond
	small := cadenceKey{backend: BackendMulticore, dim: 3, n: 16}
	large := cadenceKey{backend: BackendMulticore, dim: 3, n: 256}
	var c ckptCost
	// A small job: cheap sweeps, a save dominated by its fixed fsync cost.
	c.observeRun(small, &Result{Sweeps: 6, WallMs: 0.6})
	c.observeSave(small, 2*ms)
	if got := c.every(large); got != 1 {
		t.Fatalf("unmeasured n=256 shape picked cadence %d after an n=16 job, want 1 (cold)", got)
	}
	// The large shape's own costs: 20 ms sweeps, 1.5 ms saves, 13 sweeps.
	c.observeRun(large, &Result{Sweeps: 13, WallMs: 260})
	c.observeSave(large, 1500*time.Microsecond)
	if got := c.every(large); got != 2 {
		t.Fatalf("calibrated n=256 cadence %d, want 2", got)
	}
	c.observeSave(small, 500*ms)
	if got := c.every(large); got != 2 {
		t.Fatalf("a slow n=16 save moved the n=256 cadence to %d, want 2", got)
	}
	// One slow fsync caps the cadence at half the run, so the next job
	// still saves; its fresh samples pull the estimate back.
	c.observeSave(large, 100*ms)
	if got := c.every(large); got != 7 {
		t.Fatalf("after a slow save the n=256 cadence is %d, want 7 (half of 13 sweeps)", got)
	}
	for range 16 {
		c.observeSave(large, 1500*time.Microsecond)
	}
	if got := c.every(large); got != 2 {
		t.Fatalf("fresh 1.5 ms saves left the n=256 cadence at %d, want 2", got)
	}
	if saved, bytes := c.counters(); saved != 20 || bytes != 2*small.imageSize()+18*large.imageSize() {
		t.Fatalf("counters %d saves / %d bytes", saved, bytes)
	}
}

// calibrate is the tests' seam into the cadence estimates: it installs
// costs for shape k such that, uncapped, its jobs pick cadence want, and
// a predicted run length of sweeps.
func calibrate(s *Service, k cadenceKey, want int, sweeps float64) {
	const sweepNs = 1e6
	// A save worth (want-0.5) sweep-overheads rounds up to want.
	saveNs := (float64(want) - 0.5) * ckptOverhead * sweepNs
	s.ckpt.mu.Lock()
	defer s.ckpt.mu.Unlock()
	s.ckpt.updateLocked(k, func(sc *shapeCost) {
		*sc = shapeCost{sweepNs: sweepNs, sweeps: sweeps, saveNs: saveNs}
	})
}

func shapeCosts(s *Service, k cadenceKey) shapeCost {
	s.ckpt.mu.Lock()
	defer s.ckpt.mu.Unlock()
	return s.ckpt.shapes[k]
}

// savedSweeps records the sweep of every checkpoint a store persists.
type savedSweeps struct {
	mu     sync.Mutex
	sweeps []int
}

func watchSaves(st *store.Store) *savedSweeps {
	w := &savedSweeps{}
	st.SetCheckpointObserver(func(_ string, ck *engine.Checkpoint) {
		w.mu.Lock()
		w.sweeps = append(w.sweeps, ck.Sweep)
		w.mu.Unlock()
	})
	return w
}

func (w *savedSweeps) list() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int(nil), w.sweeps...)
}

// TestCheckpointCadenceByCost drives the default (CheckpointEvery == 0)
// cadence through the service: a fresh service checkpoints every sweep, a
// calibrated one saves only at multiples of the k it chose, a slow save
// still leaves the next job one save half way, and a kill at a by-cost
// checkpoint resumes bit-identically to the uninterrupted run.
func TestCheckpointCadenceByCost(t *testing.T) {
	const n = 32
	spec := JobSpec{Matrix: randSym(n, 41), Dim: 2, Backend: BackendEmulated, Tol: 1e-300, MaxSweeps: 40}
	key := cadenceKey{backend: BackendEmulated, dim: 2, n: n}
	ctx := context.Background()
	control := func() *Result {
		s := New(Config{Workers: 1})
		defer s.Close()
		j, err := s.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	t.Run("cold start saves every sweep", func(t *testing.T) {
		st := openStore(t, t.TempDir())
		defer st.Close()
		saves := watchSaves(st)
		s := New(Config{Workers: 1, Store: st})
		defer s.Close()
		j, err := s.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if got := j.Status().CheckpointEvery; got != 1 {
			t.Fatalf("cold-start job chose cadence %d, want 1", got)
		}
		got := saves.list()
		if len(got) == 0 {
			t.Fatal("cold-start job saved no checkpoint")
		}
		m := s.Metrics()
		if m.CheckpointsSaved != int64(len(got)) || m.CheckpointBytes != int64(len(got))*store.CheckpointSize(2, n, n) {
			t.Fatalf("metrics report %d checkpoints / %d bytes, store saw %d", m.CheckpointsSaved, m.CheckpointBytes, len(got))
		}
		// The job calibrated the estimates for the next one.
		if sc := shapeCosts(s, key); !(sc.sweepNs > 0 && sc.sweeps > 0 && sc.saveNs > 0) {
			t.Fatal("a finished durable job left the cadence uncalibrated")
		}
	})

	t.Run("calibrated saves at multiples of k", func(t *testing.T) {
		st := openStore(t, t.TempDir())
		defer st.Close()
		saves := watchSaves(st)
		s := New(Config{Workers: 1, Store: st})
		defer s.Close()
		calibrate(s, key, 3, 1000)
		j, err := s.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := j.Status().CheckpointEvery; got != 3 {
			t.Fatalf("calibrated job chose cadence %d, want 3", got)
		}
		got := saves.list()
		if len(got) == 0 {
			t.Fatal("calibrated job saved no checkpoint")
		}
		for _, sw := range got {
			if sw%3 != 0 || sw >= res.Sweeps {
				t.Fatalf("checkpoint at sweep %d: want multiples of 3 below %d (saved %v)", sw, res.Sweeps, got)
			}
		}
	})

	t.Run("slow save still saves half way", func(t *testing.T) {
		st := openStore(t, t.TempDir())
		defer st.Close()
		saves := watchSaves(st)
		s := New(Config{Workers: 1, Store: st, CacheCap: -1})
		defer s.Close()
		// Saves predicted at 1000 sweeps each: uncapped, no job would ever
		// reach a boundary again, and the estimate would never be resampled.
		calibrate(s, key, 1000, float64(control.Sweeps))
		slow := shapeCosts(s, key).saveNs
		half := (control.Sweeps + 1) / 2
		for i := range 2 {
			j, err := s.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if got := j.Status().CheckpointEvery; i == 0 && got != half {
				t.Fatalf("job chose cadence %d, want %d (half of %d sweeps)", got, half, control.Sweeps)
			}
		}
		if got := saves.list(); len(got) != 2 || got[0] != half || got[1] != half {
			t.Fatalf("saved at sweeps %v, want one save at %d per job", got, half)
		}
		if fresh := shapeCosts(s, key).saveNs; !(fresh < slow) {
			t.Fatalf("save estimate %g ns not refreshed below the slow %g ns", fresh, slow)
		}
	})

	t.Run("kill at a by-cost checkpoint resumes bit-identically", func(t *testing.T) {
		dir := t.TempDir()
		st := openStore(t, dir)
		s := New(Config{Workers: 1, Store: st})
		calibrate(s, key, 4, 1000)
		j, err := s.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		// Sweep 5 has started, so the sweep-4 checkpoint was offered;
		// Close drains it to disk.
		waitSweeps(t, j, 5)
		s.Close() // shutdown cancel: not journaled as terminal, checkpoint kept
		st.Close()

		st2 := openStore(t, dir)
		defer st2.Close()
		s2 := New(Config{Workers: 1, Store: st2})
		defer s2.Close()
		r, ok := s2.Job(j.ID())
		if !ok {
			t.Fatalf("in-flight job %s not recovered", j.ID())
		}
		from := r.Status().ResumedFromSweep
		if from < 4 || from%4 != 0 {
			t.Fatalf("resumed from sweep %d, want a positive multiple of 4", from)
		}
		res, err := r.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sweeps != control.Sweeps || res.Rotations != control.Rotations {
			t.Fatalf("resumed bookkeeping (%d sweeps, %d rotations) != control (%d, %d)", res.Sweeps, res.Rotations, control.Sweeps, control.Rotations)
		}
		for i := range control.Values {
			if res.Values[i] != control.Values[i] {
				t.Fatalf("resumed eigenvalue %d = %v differs from uninterrupted %v", i, res.Values[i], control.Values[i])
			}
		}
	})
}
