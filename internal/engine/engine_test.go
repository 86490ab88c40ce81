package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

// solveWith runs one distributed solve of the given matrix on the backend
// and gathers the final factors.
func solveWith(t *testing.T, a *matrix.Dense, d int, fam ordering.Family, fixedSweeps int, be ExecBackend, pipelined bool, q int) (*Outcome, *Stats, *matrix.Dense, *matrix.Dense) {
	t.Helper()
	prob, err := NewProblem(a, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	prob.Family = fam
	prob.FixedSweeps = fixedSweeps
	prob.Pipelined, prob.PipelineQ = pipelined, q
	prob.PipelineTs, prob.PipelineTw = 1000, 100
	out, stats, err := prob.Run(be)
	if err != nil {
		t.Fatal(err)
	}
	w := matrix.NewDense(a.Rows, a.Cols)
	u := matrix.NewDense(a.Rows, a.Cols)
	Gather(out.Blocks, w, u)
	return out, stats, w, u
}

func denseEqual(a, b *matrix.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			if ca[i] != cb[i] {
				return false
			}
		}
	}
	return true
}

// denseClose reports whether two matrices agree entrywise within tol — the
// integration-level budget for the fused kernel path, whose sums are
// reassociations of the reference path's (see internal/kernel).
func denseClose(a, b *matrix.Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for k := range a.Data {
		if math.Abs(a.Data[k]-b.Data[k]) > tol {
			return false
		}
	}
	return true
}

// TestBackendsBitIdentical: every backend running the reference kernel path
// (emulated, analytic, multicore opted into ReferenceKernels) performs the
// same rotations in the same per-node order on disjoint columns, so a solve
// must produce bit-identical factors on all of them, and they must match
// the central sequential replay. The production multicore backend runs the
// fused kernels instead and must stay within the documented ulp budget.
func TestBackendsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := matrix.RandomSymmetric(32, rng)
	const d = 2
	fam := ordering.NewPermutedBRFamily()

	refOut, _, refW, refU := solveWith(t, a, d, fam, 0, &Emulated{Ts: 1000, Tw: 100}, false, 0)

	// Central replay reference.
	blocks, err := BuildBlocks(a, d)
	if err != nil {
		t.Fatal(err)
	}
	tg := a.FrobeniusNorm()
	central, err := (&Problem{Blocks: blocks, Dim: d, Family: fam, Rows: a.Rows, TraceGram: tg * tg}).RunCentral()
	if err != nil {
		t.Fatal(err)
	}
	cw := matrix.NewDense(a.Rows, a.Cols)
	cu := matrix.NewDense(a.Rows, a.Cols)
	Gather(central.Blocks, cw, cu)
	if !denseEqual(refW, cw) || !denseEqual(refU, cu) {
		t.Error("emulated backend and central replay disagree bitwise")
	}
	if central.Sweeps != refOut.Sweeps || central.Rotations != refOut.Rotations {
		t.Errorf("central (%d sweeps, %d rotations) vs emulated (%d, %d)",
			central.Sweeps, central.Rotations, refOut.Sweeps, refOut.Rotations)
	}

	for _, be := range []ExecBackend{&Multicore{ReferenceKernels: true}, &Analytic{Ts: 1000, Tw: 100}} {
		out, _, w, u := solveWith(t, a, d, fam, 0, be, false, 0)
		if !denseEqual(refW, w) || !denseEqual(refU, u) {
			t.Errorf("%s backend disagrees bitwise with emulated", be.Name())
		}
		if out.Sweeps != refOut.Sweeps || out.Rotations != refOut.Rotations || out.Converged != refOut.Converged {
			t.Errorf("%s backend bookkeeping (%d sweeps, %d rot, conv=%v) vs emulated (%d, %d, conv=%v)",
				be.Name(), out.Sweeps, out.Rotations, out.Converged, refOut.Sweeps, refOut.Rotations, refOut.Converged)
		}
	}

	fusedOut, _, fw, fu := solveWith(t, a, d, fam, 0, &Multicore{}, false, 0)
	if !fusedOut.Converged {
		t.Error("fused multicore solve did not converge")
	}
	if !denseClose(refW, fw, 1e-8) || !denseClose(refU, fu, 1e-8) {
		t.Error("fused multicore factors drift past the integration ulp budget")
	}
}

// TestPipelinedBackendsBitIdentical: the pipelined stage order is a per-node
// property, so reference-kernel multicore and analytic runs of the
// pipelined sweep must match the emulated one bitwise too; the fused
// multicore run stays within the integration budget.
func TestPipelinedBackendsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := matrix.RandomSymmetric(32, rng)
	const d = 2
	fam := ordering.NewBRFamily()
	_, _, refW, refU := solveWith(t, a, d, fam, 0, &Emulated{Ts: 1000, Tw: 100}, true, 2)
	for _, be := range []ExecBackend{&Multicore{ReferenceKernels: true}, &Analytic{Ts: 1000, Tw: 100}} {
		_, _, w, u := solveWith(t, a, d, fam, 0, be, true, 2)
		if !denseEqual(refW, w) || !denseEqual(refU, u) {
			t.Errorf("pipelined %s backend disagrees bitwise with emulated", be.Name())
		}
	}
	_, _, fw, fu := solveWith(t, a, d, fam, 0, &Multicore{}, true, 2)
	if !denseClose(refW, fw, 1e-8) || !denseClose(refU, fu, 1e-8) {
		t.Error("pipelined fused multicore factors drift past the integration ulp budget")
	}
}

// TestAnalyticMakespanMatchesClosedForm: the analytic backend replays the
// cost model on raw payload sizes, so a fixed-sweep unpipelined run must
// reproduce costmodel.BaselineSweepCost exactly (up to float summation
// order) — the predictions and the measured runs share one code path.
func TestAnalyticMakespanMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const m, d, sweeps = 64, 2, 3
	a := matrix.RandomSymmetric(m, rng)
	_, stats, _, _ := solveWith(t, a, d, ordering.NewBRFamily(), sweeps, &Analytic{Ts: 1000, Tw: 100}, false, 0)
	want := float64(sweeps) * costmodel.BaselineSweepCost(d, costmodel.Params{M: m, Ts: 1000, Tw: 100})
	if rel := math.Abs(stats.Makespan-want) / want; rel > 1e-9 {
		t.Errorf("analytic makespan %.6f, closed form %.6f (rel %.2e)", stats.Makespan, want, rel)
	}
	// Every node advances to the same virtual time under the symmetric
	// schedule.
	for p, vt := range stats.NodeTimes {
		if vt != stats.Makespan {
			t.Errorf("node %d time %.3f != makespan %.3f", p, vt, stats.Makespan)
		}
	}
}

// TestEmulatedElementsExceedAnalytic: the emulated machine serializes
// blocks with id/ncols/column-index headers, so it must move strictly more
// elements than the analytic raw count — the documented gap between
// measured and modeled communication time.
func TestEmulatedElementsExceedAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := matrix.RandomSymmetric(32, rng)
	_, emu, _, _ := solveWith(t, a, 2, ordering.NewBRFamily(), 2, &Emulated{Ts: 1000, Tw: 100}, false, 0)
	_, ana, _, _ := solveWith(t, a, 2, ordering.NewBRFamily(), 2, &Analytic{Ts: 1000, Tw: 100}, false, 0)
	if emu.Messages != ana.Messages {
		t.Errorf("message counts differ: emulated %d, analytic %d", emu.Messages, ana.Messages)
	}
	if emu.Elements <= ana.Elements {
		t.Errorf("emulated elements %d should exceed analytic raw elements %d (encoding headers)", emu.Elements, ana.Elements)
	}
}

// TestMulticoreHasNoClock: the multicore backend runs at hardware speed with
// no virtual time.
func TestMulticoreHasNoClock(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	a := matrix.RandomSymmetric(16, rng)
	_, stats, _, _ := solveWith(t, a, 1, ordering.NewBRFamily(), 0, &Multicore{}, false, 0)
	if stats.Makespan != 0 {
		t.Errorf("multicore makespan %.3f, want 0", stats.Makespan)
	}
	if stats.Messages == 0 {
		t.Error("multicore run reported no messages")
	}
}

// TestBackendDimZero: a 0-cube run degenerates to one node and no links on
// every backend.
func TestBackendDimZero(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := matrix.RandomSymmetric(8, rng)
	for _, be := range []ExecBackend{&Emulated{Ts: 1, Tw: 1}, &Multicore{}, &Analytic{Ts: 1, Tw: 1}} {
		out, _, w, u := solveWith(t, a, 0, ordering.NewBRFamily(), 0, be, false, 0)
		if !out.Converged {
			t.Errorf("%s: d=0 solve did not converge", be.Name())
		}
		// λ from the gathered factors must reproduce A's trace.
		tr := 0.0
		for i := 0; i < a.Rows; i++ {
			tr += matrix.Dot(u.Col(i), w.Col(i))
		}
		wantTr := 0.0
		for i := 0; i < a.Rows; i++ {
			wantTr += a.At(i, i)
		}
		if math.Abs(tr-wantTr) > 1e-8*(1+math.Abs(wantTr)) {
			t.Errorf("%s: eigenvalue sum %.12f, trace %.12f", be.Name(), tr, wantTr)
		}
	}
}

// TestFixedSweepsOverridesMaxSweeps: FixedSweeps must run exactly that many
// sweeps on every path, even past MaxSweeps — the central replay and the
// distributed backends have to agree.
func TestFixedSweepsOverridesMaxSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	a := matrix.RandomSymmetric(16, rng)
	const d, fixed = 1, 5
	build := func() *Problem {
		blocks, err := BuildBlocks(a, d)
		if err != nil {
			t.Fatal(err)
		}
		tg := a.FrobeniusNorm()
		return &Problem{
			Blocks:      blocks,
			Dim:         d,
			Family:      ordering.NewBRFamily(),
			Opts:        Options{MaxSweeps: 2},
			FixedSweeps: fixed,
			Rows:        a.Rows,
			TraceGram:   tg * tg,
		}
	}
	central, err := build().RunCentral()
	if err != nil {
		t.Fatal(err)
	}
	if central.Sweeps != fixed {
		t.Errorf("central ran %d sweeps, want %d", central.Sweeps, fixed)
	}
	dist, _, err := build().Run(&Multicore{ReferenceKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Sweeps != fixed {
		t.Errorf("distributed ran %d sweeps, want %d", dist.Sweeps, fixed)
	}
	if dist.Rotations != central.Rotations {
		t.Errorf("rotation counts diverge: distributed %d, central %d", dist.Rotations, central.Rotations)
	}
	// The fused path must honor the same fixed sweep budget (rotation counts
	// are not pinned across kernel paths: a pair within an ulp of the skip
	// threshold may rotate on one path and not the other).
	fused, _, err := build().Run(&Multicore{})
	if err != nil {
		t.Fatal(err)
	}
	if fused.Sweeps != fixed {
		t.Errorf("fused distributed ran %d sweeps, want %d", fused.Sweeps, fixed)
	}
}

// TestRunRejectsWrongBlockCount guards the problem validation.
func TestRunRejectsWrongBlockCount(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	a := matrix.RandomSymmetric(16, rng)
	blocks, err := BuildBlocks(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	prob := &Problem{Blocks: blocks[:3], Dim: 2, Rows: 16, TraceGram: 1}
	if _, _, err := prob.Run(&Multicore{}); err == nil {
		t.Error("Run accepted a mismatched block count")
	}
	if _, err := prob.RunCentral(); err == nil {
		t.Error("RunCentral accepted a mismatched block count")
	}
}
