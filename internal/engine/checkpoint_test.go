package engine

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/matrix"
	"repro/internal/ordering"
)

// checkpointProblem builds a fresh distributed problem for the matrix.
func checkpointProblem(t *testing.T, a *matrix.Dense, d int, fam ordering.Family) *Problem {
	t.Helper()
	prob, err := NewProblem(a, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	prob.Family = fam
	return prob
}

// captureAll runs the problem once, collecting every sweep-boundary
// checkpoint, and returns the outcome with gathered factors.
func captureAll(t *testing.T, a *matrix.Dense, d int, fam ordering.Family, be ExecBackend) (*Outcome, []*Checkpoint, *matrix.Dense, *matrix.Dense) {
	t.Helper()
	prob := checkpointProblem(t, a, d, fam)
	var cks []*Checkpoint
	prob.OnCheckpoint = func(ck *Checkpoint) { cks = append(cks, ck) }
	out, _, err := prob.Run(be)
	if err != nil {
		t.Fatal(err)
	}
	w := matrix.NewDense(a.Rows, a.Cols)
	u := matrix.NewDense(a.Rows, a.Cols)
	Gather(out.Blocks, w, u)
	return out, cks, w, u
}

// resumeFrom restores a fresh problem from the checkpoint and finishes the
// solve on the backend.
func resumeFrom(t *testing.T, a *matrix.Dense, d int, fam ordering.Family, ck *Checkpoint, be ExecBackend) (*Outcome, *matrix.Dense, *matrix.Dense) {
	t.Helper()
	prob := checkpointProblem(t, a, d, fam)
	if err := prob.Restore(ck); err != nil {
		t.Fatal(err)
	}
	out, _, err := prob.Run(be)
	if err != nil {
		t.Fatal(err)
	}
	w := matrix.NewDense(a.Rows, a.Cols)
	u := matrix.NewDense(a.Rows, a.Cols)
	Gather(out.Blocks, w, u)
	return out, w, u
}

// TestCheckpointResumeDifferential: a solve interrupted at every possible
// sweep boundary and resumed from the captured checkpoint must reproduce
// the uninterrupted run — bit-identical on the reference kernel path
// (emulated, analytic, multicore with reference kernels), and within the
// fused integration budget on the production multicore backend (whose
// resumed run is a fused solve end to end, so the bound relative to an
// uninterrupted fused run is in practice also exact; the test asserts the
// documented contract).
func TestCheckpointResumeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	a := matrix.RandomSymmetric(40, rng)
	const d = 2
	fam := ordering.NewPermutedBRFamily()

	backends := []struct {
		name  string
		mk    func() ExecBackend
		exact bool
	}{
		{"emulated", func() ExecBackend { return &Emulated{Ts: 1000, Tw: 100} }, true},
		{"analytic", func() ExecBackend { return &Analytic{Ts: 1000, Tw: 100} }, true},
		{"multicore-ref", func() ExecBackend { return &Multicore{ReferenceKernels: true} }, true},
		{"multicore-fused", func() ExecBackend { return &Multicore{} }, false},
	}
	for _, bk := range backends {
		t.Run(bk.name, func(t *testing.T) {
			full, cks, w0, u0 := captureAll(t, a, d, fam, bk.mk())
			if !full.Converged {
				t.Fatalf("uninterrupted solve did not converge in %d sweeps", full.Sweeps)
			}
			if len(cks) == 0 {
				t.Fatal("no checkpoints captured")
			}
			if len(cks) != full.Sweeps-1 {
				t.Fatalf("captured %d checkpoints for a %d-sweep solve, want %d (none at the final boundary)", len(cks), full.Sweeps, full.Sweeps-1)
			}
			for _, ck := range cks {
				out, w, u := resumeFrom(t, a, d, fam, ck, bk.mk())
				if out.Sweeps != full.Sweeps || out.Converged != full.Converged || out.Rotations != full.Rotations {
					t.Fatalf("resume from sweep %d: outcome (sweeps=%d conv=%v rot=%d) != uninterrupted (sweeps=%d conv=%v rot=%d)",
						ck.Sweep, out.Sweeps, out.Converged, out.Rotations, full.Sweeps, full.Converged, full.Rotations)
				}
				if bk.exact {
					if out.FinalMaxRel != full.FinalMaxRel {
						t.Fatalf("resume from sweep %d: FinalMaxRel %v != %v", ck.Sweep, out.FinalMaxRel, full.FinalMaxRel)
					}
					if !denseEqual(w, w0) || !denseEqual(u, u0) {
						t.Fatalf("resume from sweep %d: factors not bit-identical to the uninterrupted run", ck.Sweep)
					}
				} else {
					const tol = 1e-9
					if !denseClose(w, w0, tol) || !denseClose(u, u0, tol) {
						t.Fatalf("resume from sweep %d: factors drift past %g from the uninterrupted fused run", ck.Sweep, tol)
					}
				}
			}
		})
	}
}

// TestCheckpointResumeCrossesKillPoint is the crash-recovery property: kill
// the solve at a random sweep k (the interrupt path a canceled job takes),
// resume from the last checkpoint at or before k, and require the final
// eigensystem to match the uninterrupted run bit-for-bit on the reference
// path. This is the engine half of the service's kill-and-restart test.
func TestCheckpointResumeCrossesKillPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	a := matrix.RandomSymmetric(32, rng)
	const d = 2
	fam := ordering.NewBRFamily()
	mk := func() ExecBackend { return &Emulated{Ts: 1000, Tw: 100} }

	full, _, w0, u0 := captureAll(t, a, d, fam, mk())
	for trial := 0; trial < 4; trial++ {
		kill := 1 + rng.Intn(full.Sweeps-1)
		// Run a doomed solve that gets interrupted after `kill` sweeps,
		// checkpointing every sweep — exactly a crash-with-store timeline.
		prob := checkpointProblem(t, a, d, fam)
		var last *Checkpoint
		prob.OnCheckpoint = func(ck *Checkpoint) { last = ck }
		// Interrupt is polled from every node's goroutine; the sweep count
		// is bumped on node 0 — hence the atomic.
		var sweeps atomic.Int64
		prob.Interrupt = func() bool { return int(sweeps.Load()) >= kill }
		prob.OnSweep = func(SweepProgress) { sweeps.Add(1) }
		out, _, err := prob.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		if !out.Interrupted {
			t.Fatalf("trial %d: solve was not interrupted (kill=%d, ran %d sweeps)", trial, kill, out.Sweeps)
		}
		if last == nil {
			t.Fatalf("trial %d: no checkpoint before the kill at sweep %d", trial, kill)
		}
		res, w, u := resumeFrom(t, a, d, fam, last, mk())
		if res.Sweeps != full.Sweeps || !res.Converged || res.Rotations != full.Rotations {
			t.Fatalf("trial %d: resumed outcome (sweeps=%d rot=%d) != uninterrupted (sweeps=%d rot=%d)",
				trial, res.Sweeps, res.Rotations, full.Sweeps, full.Rotations)
		}
		if !denseEqual(w, w0) || !denseEqual(u, u0) {
			t.Fatalf("trial %d: resumed factors not bit-identical (killed at sweep %d, resumed from %d)", trial, kill, last.Sweep)
		}
		// Sanity: the differential crossed a real boundary.
		if last.Sweep < 1 || last.Sweep >= full.Sweeps {
			t.Fatalf("trial %d: checkpoint sweep %d outside (0, %d)", trial, last.Sweep, full.Sweeps)
		}
	}
}

// TestCheckpointResumeCentral: a checkpoint captured on the distributed
// path restores into the central sequential replay — the two paths share
// the schedule, so the replay finishes the solve bit-identically.
func TestCheckpointResumeCentral(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := matrix.RandomSymmetric(24, rng)
	const d = 1
	fam := ordering.NewPermutedBRFamily()

	full, cks, w0, u0 := captureAll(t, a, d, fam, &Emulated{Ts: 1000, Tw: 100})
	if len(cks) < 2 {
		t.Fatalf("want >= 2 checkpoints, got %d", len(cks))
	}
	ck := cks[len(cks)/2]
	prob := checkpointProblem(t, a, d, fam)
	if err := prob.Restore(ck); err != nil {
		t.Fatal(err)
	}
	out, err := prob.RunCentral()
	if err != nil {
		t.Fatal(err)
	}
	if out.Sweeps != full.Sweeps || out.Rotations != full.Rotations || !out.Converged {
		t.Fatalf("central resume: sweeps=%d rot=%d conv=%v, want %d/%d/true", out.Sweeps, out.Rotations, out.Converged, full.Sweeps, full.Rotations)
	}
	w := matrix.NewDense(a.Rows, a.Cols)
	u := matrix.NewDense(a.Rows, a.Cols)
	Gather(out.Blocks, w, u)
	if !denseEqual(w, w0) || !denseEqual(u, u0) {
		t.Fatal("central resume not bit-identical to the distributed uninterrupted run")
	}
}

// TestCheckpointRejections pins the unsupported combinations and the
// restore validations.
func TestCheckpointRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := matrix.RandomSymmetric(16, rng)
	be := &Multicore{ReferenceKernels: true}

	fixed := checkpointProblem(t, a, 1, nil)
	fixed.FixedSweeps = 2
	fixed.OnCheckpoint = func(*Checkpoint) {}
	if _, _, err := fixed.Run(be); err == nil {
		t.Fatal("FixedSweeps run accepted a checkpoint hook")
	}

	piped := checkpointProblem(t, a, 1, nil)
	piped.Pipelined = true
	piped.OnCheckpoint = func(*Checkpoint) {}
	if _, _, err := piped.Run(be); err == nil {
		t.Fatal("pipelined run accepted a checkpoint hook")
	}

	_, cks, _, _ := captureAll(t, a, 1, nil, be)
	wrongDim := checkpointProblem(t, a, 1, nil)
	ck := cks[0].Clone()
	ck.Dim = 2
	if err := wrongDim.Restore(ck); err == nil {
		t.Fatal("Restore accepted a dimension mismatch")
	}
	truncated := cks[0].Clone()
	truncated.Slots = truncated.Slots[:1]
	if err := wrongDim.Restore(truncated); err == nil {
		t.Fatal("Restore accepted a slot-count mismatch")
	}
	short := cks[0].Clone()
	short.Slots[0].A[0] = short.Slots[0].A[0][:4]
	if err := wrongDim.Restore(short); err == nil {
		t.Fatal("Restore accepted a truncated column")
	}

	// Column IDs index the gathered factors: each must name a column of
	// the problem, exactly once across all slots.
	for _, tc := range []struct {
		name  string
		alter func(ck *Checkpoint)
	}{
		{"out-of-range ID", func(ck *Checkpoint) { ck.Slots[0].Cols[0] = 99 }},
		{"duplicate ID", func(ck *Checkpoint) { ck.Slots[0].Cols[0] = ck.Slots[1].Cols[0] }},
		{"missing ID", func(ck *Checkpoint) {
			b := ck.Slots[0]
			b.Cols, b.A, b.U = b.Cols[1:], b.A[1:], b.U[1:]
		}},
	} {
		bad := cks[0].Clone()
		tc.alter(bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("Validate accepted a checkpoint with this defect: %s", tc.name)
		}
		if err := checkpointProblem(t, a, 1, nil).Restore(bad); err == nil {
			t.Errorf("Restore accepted a checkpoint with this defect: %s", tc.name)
		}
	}
}

// TestCheckpointCostsModeledMachineNothing: enabling capture must not
// perturb the cost model — the barrier is process-level memory ordering,
// not machine communication — so makespan, message and element counts
// match a capture-free run exactly on the clocked backends.
func TestCheckpointCostsModeledMachineNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := matrix.RandomSymmetric(32, rng)
	const d = 2
	fam := ordering.NewPermutedBRFamily()
	for _, mk := range []func() ExecBackend{
		func() ExecBackend { return &Emulated{Ts: 1000, Tw: 100} },
		func() ExecBackend { return &Analytic{Ts: 1000, Tw: 100} },
	} {
		plain := checkpointProblem(t, a, d, fam)
		_, plainStats, err := plain.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		captured := checkpointProblem(t, a, d, fam)
		n := 0
		captured.OnCheckpoint = func(*Checkpoint) { n++ }
		_, ckStats, err := captured.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("no checkpoints captured")
		}
		if ckStats.Makespan != plainStats.Makespan || ckStats.Messages != plainStats.Messages || ckStats.Elements != plainStats.Elements {
			t.Fatalf("%s: capture changed the cost model: makespan %v vs %v, messages %d vs %d, elements %d vs %d",
				mk().Name(), ckStats.Makespan, plainStats.Makespan, ckStats.Messages, plainStats.Messages, ckStats.Elements, plainStats.Elements)
		}
	}
}
