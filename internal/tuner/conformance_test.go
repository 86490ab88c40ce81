package tuner

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

// Conformance manifest: the shapes the suite proves the tuner's contract
// over. Kept small enough for CI but covering both port models, odd block
// loads and more than one cube dimension.
func conformanceShapes() []Shape {
	return []Shape{
		{N: 128, Dim: 3},
		{N: 96, Dim: 2},
		{N: 100, Dim: 2},
		{N: 64, Dim: 2, Ports: 1},
	}
}

// Contract point 1: per shape, the winner's analytic makespan never
// exceeds the unpipelined baseline's, and the baseline figure is the
// closed-form CC-cube cost — the tuner cannot regress a shape and cannot
// drift from the paper's reference model.
func TestConformanceTunedNeverWorse(t *testing.T) {
	for _, sh := range conformanceShapes() {
		rep, err := Search(sh, Params{}, Options{Random: 4})
		if err != nil {
			t.Fatalf("%s: %v", sh.Key(), err)
		}
		w := rep.Winner
		if w.TunedMakespan > w.BaselineMakespan {
			t.Errorf("%s: tuned %g > baseline %g", sh.Key(), w.TunedMakespan, w.BaselineMakespan)
		}
		model := costmodel.BaselineSweepCost(sh.Dim, costmodel.Params{
			M: float64(sh.N), Ts: rep.Ts, Tw: rep.Tw, Ports: sh.Ports,
		})
		// Even shapes must match the closed form exactly; uneven ones
		// (larger worst-case block payloads) within the model tolerance.
		tol := 0.05
		if sh.N%(2<<uint(sh.Dim)) == 0 {
			tol = 1e-9
		}
		if rel := math.Abs(rep.BaselineMakespan-model) / model; rel > tol {
			t.Errorf("%s: baseline %g departs from closed-form %g (rel %g)",
				sh.Key(), rep.BaselineMakespan, model, rel)
		}
	}
}

// Contract point 2: a tuned plan changes the rotation order, not the
// spectrum — its converged eigenvalues agree with the baseline ordering's
// to well within the convergence tolerance (the same tolerance-level
// agreement DESIGN.md grants communication pipelining, note 11).
func TestConformanceEigenvaluesMatchBaseline(t *testing.T) {
	for _, sh := range conformanceShapes()[:2] {
		rep, err := Search(sh, Params{}, Options{Random: 4})
		if err != nil {
			t.Fatalf("%s: %v", sh.Key(), err)
		}
		a := matrix.RandomSymmetric(sh.N, rand.New(rand.NewSource(int64(sh.N))))
		base, err := ordering.FamilyByName("pbr")
		if err != nil {
			t.Fatal(err)
		}
		ref := emulatedSolve(t, a, sh.Dim, base, false, 0)
		fam, err := rep.Winner.Family()
		if err != nil {
			t.Fatal(err)
		}
		tuned := emulatedSolve(t, a, sh.Dim, fam, rep.Winner.Pipelined, rep.Winner.PipelineQ)
		if !ref.Converged || !tuned.Converged {
			t.Fatalf("%s: convergence ref=%v tuned=%v", sh.Key(), ref.Converged, tuned.Converged)
		}
		rv := append([]float64(nil), ref.Values...)
		tv := append([]float64(nil), tuned.Values...)
		sort.Float64s(rv)
		sort.Float64s(tv)
		scale := math.Max(math.Abs(rv[0]), math.Abs(rv[len(rv)-1]))
		for i := range rv {
			if diff := math.Abs(rv[i] - tv[i]); diff > 1e-8*scale {
				t.Errorf("%s: eigenvalue %d: baseline %g vs tuned %g (diff %g)",
					sh.Key(), i, rv[i], tv[i], diff)
			}
		}
	}
}

// emulatedSolve runs the eigensolve of a on the emulated machine with the
// paper's Figure 2 parameters, under the given ordering and pipelining.
func emulatedSolve(t *testing.T, a *matrix.Dense, d int, fam ordering.Family, pipelined bool, q int) *engine.EigenResult {
	t.Helper()
	p, err := engine.NewProblem(a, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Family = fam
	p.Pipelined, p.PipelineQ = pipelined, q
	p.PipelineTs, p.PipelineTw = 1000, 100
	out, _, err := p.Run(&engine.Emulated{Ts: 1000, Tw: 100})
	if err != nil {
		t.Fatal(err)
	}
	return out.Eigen()
}
