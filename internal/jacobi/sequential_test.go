package jacobi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

func TestSolveCyclicKnownMatrix(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := matrix.NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	res, err := SolveCyclic(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.Values[0]-1) > 1e-10 || math.Abs(res.Values[1]-3) > 1e-10 {
		t.Errorf("eigenvalues %v, want [1 3]", res.Values)
	}
	if r := matrix.EigenResidual(a, res.Values, res.Vectors); r > 1e-10 {
		t.Errorf("residual %g", r)
	}
}

func TestSolveCyclicDiagonal(t *testing.T) {
	a := matrix.NewDense(3, 3)
	a.Set(0, 0, -2)
	a.Set(1, 1, 5)
	a.Set(2, 2, 1)
	res, err := SolveCyclic(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 1, 5}
	for i, w := range want {
		if math.Abs(res.Values[i]-w) > 1e-12 {
			t.Errorf("values %v, want %v", res.Values, want)
			break
		}
	}
	if res.Sweeps != 1 {
		t.Errorf("diagonal matrix took %d sweeps", res.Sweeps)
	}
}

func TestSolveCyclicRandomAgainstTwoSided(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, m := range []int{4, 9, 16, 25} {
		a := matrix.RandomSymmetric(m, rng)
		one, err := SolveCyclic(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		two, err := SolveTwoSided(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !one.Converged || !two.Converged {
			t.Fatalf("m=%d: convergence one=%v two=%v", m, one.Converged, two.Converged)
		}
		if d := matrix.SortedEigenvalueDistance(one.Values, two.Values); d > 1e-8 {
			t.Errorf("m=%d: spectra differ by %g", m, d)
		}
		if r := matrix.EigenResidual(a, one.Values, one.Vectors); r > 1e-8 {
			t.Errorf("m=%d: one-sided residual %g", m, r)
		}
		if o := matrix.OrthogonalityError(one.Vectors); o > 1e-10 {
			t.Errorf("m=%d: eigenvectors not orthonormal: %g", m, o)
		}
	}
}

// The schedule-driven solver must converge to the same spectrum as the
// cyclic baseline for every family and several (m, d) shapes.
func TestSolveScheduleMatchesCyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct{ m, d int }{
		{8, 1}, {8, 2}, {16, 2}, {16, 3}, {12, 1}, {10, 2}, {32, 3},
	}
	for _, c := range cases {
		a := matrix.RandomSymmetric(c.m, rng)
		ref, err := SolveCyclic(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range ordering.AllFamilies() {
			res := central(t, a, c.d, fam, Options{})
			if !res.Converged {
				t.Fatalf("m=%d d=%d %s: no convergence", c.m, c.d, fam.Name())
			}
			if dist := matrix.SortedEigenvalueDistance(ref.Values, res.Values); dist > 1e-8 {
				t.Errorf("m=%d d=%d %s: spectra differ by %g", c.m, c.d, fam.Name(), dist)
			}
			if r := matrix.EigenResidual(a, res.Values, res.Vectors); r > 1e-8 {
				t.Errorf("m=%d d=%d %s: residual %g", c.m, c.d, fam.Name(), r)
			}
		}
	}
}

// d=0 degenerates to a single node doing intra-block + one cross pairing:
// still a correct solver.
func TestSolveScheduleSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := matrix.RandomSymmetric(6, rng)
	res := central(t, a, 0, ordering.NewBRFamily(), Options{})
	if !res.Converged {
		t.Fatal("no convergence")
	}
	if r := matrix.EigenResidual(a, res.Values, res.Vectors); r > 1e-8 {
		t.Errorf("residual %g", r)
	}
}

func TestSolveRejectsNonSquare(t *testing.T) {
	a := matrix.NewDense(3, 4)
	if _, err := SolveCyclic(a, Options{}); err == nil {
		t.Error("non-square accepted by cyclic")
	}
	if _, err := engine.NewProblem(a, 1, nil); err == nil {
		t.Error("non-square accepted by schedule")
	}
	if _, err := SolveTwoSided(a, Options{}); err == nil {
		t.Error("non-square accepted by two-sided")
	}
}

func TestSolveTwoSidedRejectsAsymmetric(t *testing.T) {
	a := matrix.NewDense(2, 2)
	a.Set(0, 1, 1) // not symmetric
	if _, err := SolveTwoSided(a, Options{}); err == nil {
		t.Error("asymmetric matrix accepted")
	}
}

// MaxSweeps is honored and non-convergence is reported, not hidden.
func TestSolveMaxSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := matrix.RandomSymmetric(16, rng)
	res, err := SolveCyclic(a, Options{Tol: 1e-14, MaxSweeps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("cannot converge to 1e-14 in one sweep")
	}
	if res.Sweeps != 1 {
		t.Errorf("Sweeps = %d", res.Sweeps)
	}
}

// Eigenvalues must come out sorted ascending.
func TestEigenvaluesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := matrix.RandomSymmetric(12, rng)
	res, err := SolveCyclic(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Values); i++ {
		if res.Values[i] < res.Values[i-1] {
			t.Fatalf("values not sorted: %v", res.Values)
		}
	}
}

// Trace invariance: sum of eigenvalues equals trace of A.
func TestEigenvalueTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range []int{5, 10, 20} {
		a := matrix.RandomSymmetric(m, rng)
		res, err := SolveCyclic(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		trace := 0.0
		for i := 0; i < m; i++ {
			trace += a.At(i, i)
		}
		sum := 0.0
		for _, v := range res.Values {
			sum += v
		}
		if math.Abs(trace-sum) > 1e-9*(1+math.Abs(trace)) {
			t.Errorf("m=%d: trace %g vs eigenvalue sum %g", m, trace, sum)
		}
	}
}
