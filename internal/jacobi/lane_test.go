package jacobi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

// TestSolveLaneReferenceBitIdentical: each job of a reference-mode lane is
// bit-for-bit the sequential reference solve of the same input — the lane
// engine's end-to-end conformance anchor.
func TestSolveLaneReferenceBitIdentical(t *testing.T) {
	const d, n, K = 2, 24, 4
	rng := rand.New(rand.NewSource(71))
	fam := ordering.NewBRFamily()
	jobs := make([]*engine.LaneJob, K)
	inputs := make([]*matrix.Dense, K)
	for k := 0; k < K; k++ {
		inputs[k] = matrix.RandomSymmetric(n, rng)
		jobs[k] = laneJob(t, inputs[k], d, Options{})
	}
	got, err := runLane(d, fam, true, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < K; k++ {
		want := central(t, inputs[k], d, fam, Options{})
		if got[k].Sweeps != want.Sweeps || got[k].Rotations != want.Rotations ||
			got[k].Converged != want.Converged {
			t.Errorf("job %d: (%d sweeps, %d rot, conv %v) vs schedule (%d, %d, %v)",
				k, got[k].Sweeps, got[k].Rotations, got[k].Converged,
				want.Sweeps, want.Rotations, want.Converged)
		}
		for i := range want.Values {
			if math.Float64bits(got[k].Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("job %d eigenvalue %d: lane %v, schedule %v", k, i, got[k].Values[i], want.Values[i])
			}
		}
		for j := 0; j < n; j++ {
			gc, wc := got[k].Vectors.Col(j), want.Vectors.Col(j)
			for i := range wc {
				if math.Float64bits(gc[i]) != math.Float64bits(wc[i]) {
					t.Fatalf("job %d vector (%d,%d): lane diverges bitwise", k, i, j)
				}
			}
		}
	}
}

// TestSolveLaneFusedEigenAccuracy: the fused lane's eigenpairs reproduce
// the reference solve's within the integration tolerance of the fused
// solo path, and residuals ‖A·v − λv‖ stay at solve accuracy.
func TestSolveLaneFusedEigenAccuracy(t *testing.T) {
	const d, n, K = 2, 32, 6
	rng := rand.New(rand.NewSource(72))
	fam := ordering.NewBRFamily()
	jobs := make([]*engine.LaneJob, K)
	inputs := make([]*matrix.Dense, K)
	for k := 0; k < K; k++ {
		inputs[k] = matrix.RandomSymmetric(n, rng)
		jobs[k] = laneJob(t, inputs[k], d, Options{})
	}
	got, err := runLane(d, fam, false, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < K; k++ {
		if !got[k].Converged {
			t.Errorf("job %d did not converge", k)
		}
		want := central(t, inputs[k], d, fam, Options{})
		for i := range want.Values {
			if d := math.Abs(got[k].Values[i] - want.Values[i]); d > 1e-8 {
				t.Errorf("job %d eigenvalue %d drift %g", k, i, d)
			}
		}
		// Residual check against the original matrix.
		for j := 0; j < n; j++ {
			v := got[k].Vectors.Col(j)
			lam := got[k].Values[j]
			for i := 0; i < n; i++ {
				av := 0.0
				for l := 0; l < n; l++ {
					av += inputs[k].At(i, l) * v[l]
				}
				if math.Abs(av-lam*v[i]) > 1e-7 {
					t.Fatalf("job %d: residual at (%d,%d): %g", k, i, j, math.Abs(av-lam*v[i]))
				}
			}
		}
	}
}

// TestSolveLaneMixedOptions: per-job options are honored — a sweep-capped
// job reports its cap while lane mates run to convergence.
func TestSolveLaneMixedOptions(t *testing.T) {
	const d, n = 2, 16
	rng := rand.New(rand.NewSource(73))
	jobs := []*engine.LaneJob{
		laneJob(t, matrix.RandomSymmetric(n, rng), d, Options{Tol: 1e-13, MaxSweeps: 2}),
		laneJob(t, matrix.RandomSymmetric(n, rng), d, Options{}),
		laneJob(t, matrix.RandomSymmetric(n, rng), d, Options{}),
	}
	jobs[2].FixedSweeps = 3
	got, err := runLane(d, nil, false, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Sweeps != 2 || got[0].Converged {
		t.Errorf("capped job: %d sweeps converged=%v, want 2/false", got[0].Sweeps, got[0].Converged)
	}
	if !got[1].Converged {
		t.Errorf("free job did not converge")
	}
	if got[2].Sweeps != 3 {
		t.Errorf("fixed-sweeps job ran %d sweeps, want 3", got[2].Sweeps)
	}
}

// TestSolveLaneRejectsMixedShapes: shape validation surfaces as an error,
// not a panic.
func TestSolveLaneRejectsMixedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	jobs := []*engine.LaneJob{
		laneJob(t, matrix.RandomSymmetric(16, rng), 2, Options{}),
		laneJob(t, matrix.RandomSymmetric(24, rng), 2, Options{}),
	}
	if _, err := runLane(2, nil, false, jobs); err == nil {
		t.Error("mixed-shape lane accepted")
	}
}

// laneJob builds a lane member for the eigensolve of a on a d-cube, with
// the blocks, height and trace normalizer of engine.NewProblem.
func laneJob(t *testing.T, a *matrix.Dense, d int, opts Options) *engine.LaneJob {
	t.Helper()
	p := problem(t, a, d, nil, opts)
	return &engine.LaneJob{Blocks: p.Blocks, Opts: opts, Rows: p.Rows, TraceGram: p.TraceGram}
}

// runLane solves the jobs together on the batched lane (reference or fused
// kernels) and extracts each job's eigenpairs.
func runLane(d int, fam ordering.Family, reference bool, jobs []*engine.LaneJob) ([]*engine.EigenResult, error) {
	outs, err := (&engine.BatchedBackend{ReferenceKernels: reference}).RunLane(d, fam, jobs)
	if err != nil {
		return nil, err
	}
	res := make([]*engine.EigenResult, len(outs))
	for i, out := range outs {
		res[i] = out.Eigen()
	}
	return res, nil
}
