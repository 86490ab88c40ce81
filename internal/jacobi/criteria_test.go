package jacobi

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/ordering"
)

// The distributed solver under the OffFrob criterion must converge and
// agree with the sequential schedule solver's spectrum. (Sweep counts may
// differ by the reduction's float-summation order in principle, so only the
// numerics are asserted tightly.)
func TestSolveParallelOffFrobCriterion(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	a := matrix.RandomSymmetric(24, rng)
	opts := Options{Tol: 3.5e-4, Criterion: OffFrobCriterion}
	par, _ := run(t, problem(t, a, 2, ordering.NewBRFamily(), opts), figure2())
	if !par.Converged {
		t.Fatal("no convergence")
	}
	seq := central(t, a, 2, ordering.NewBRFamily(), opts)
	if par.Sweeps != seq.Sweeps {
		t.Errorf("sweeps differ: parallel %d vs sequential %d", par.Sweeps, seq.Sweeps)
	}
	if d := matrix.SortedEigenvalueDistance(par.Values, seq.Values); d > 1e-10 {
		t.Errorf("spectra differ by %g", d)
	}
	// The loose single-precision-style criterion still yields a usable
	// decomposition (residual at the criterion's scale).
	if r := matrix.EigenResidual(a, par.Values, par.Vectors); r > 1e-3 {
		t.Errorf("residual %g too large even for the loose criterion", r)
	}
}

// The OffFrob criterion is strictly looser than MaxRel at matching
// tolerances: it must never need more sweeps.
func TestCriteriaOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for trial := 0; trial < 5; trial++ {
		a := matrix.RandomSymmetric(16, rng)
		frob, err := SolveCyclic(a, Options{Tol: 1e-8, Criterion: OffFrobCriterion})
		if err != nil {
			t.Fatal(err)
		}
		maxrel, err := SolveCyclic(a, Options{Tol: 1e-8, Criterion: MaxRelCriterion})
		if err != nil {
			t.Fatal(err)
		}
		if frob.Sweeps > maxrel.Sweeps {
			t.Errorf("trial %d: OffFrob took %d sweeps, MaxRel %d", trial, frob.Sweeps, maxrel.Sweeps)
		}
	}
}

// The pipelined solver honors the OffFrob criterion too.
func TestPipelinedOffFrobCriterion(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	a := matrix.RandomSymmetric(16, rng)
	p := pipelined(problem(t, a, 2, ordering.NewDegree4Family(), Options{Tol: 3.5e-4, Criterion: OffFrobCriterion}), 2)
	res, _ := run(t, p, figure2())
	if !res.Converged {
		t.Fatal("no convergence")
	}
	ref, err := SolveCyclic(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.SortedEigenvalueDistance(res.Values, ref.Values); d > 1e-2 {
		t.Errorf("spectra differ by %g (loose criterion should still land close)", d)
	}
}

// Table 2 uses the same matrices across families; the cells must therefore
// be reproducible for a fixed seed.
func TestTable2Deterministic(t *testing.T) {
	run := func() []Table2Cell {
		cells, err := RunTable2(Table2Config{Sizes: []int{8}, Trials: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	a, b := run(), run()
	for i := range a {
		for k, v := range a[i].Sweeps {
			if b[i].Sweeps[k] != v {
				t.Fatalf("cell %d family %s not deterministic", i, k)
			}
		}
	}
}

// A reduced Table 2 (m = 8 on P = 2 and 4, three trials) lands in the
// paper's sweep band.
func TestTable2Small(t *testing.T) {
	cells, err := RunTable2(Table2Config{Sizes: []int{8}, Trials: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 { // P = 2, 4
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		for fam, sweeps := range c.Sweeps {
			if sweeps < 2 || sweeps > 12 {
				t.Errorf("m=%d P=%d %s: %g sweeps", c.M, c.P, fam, sweeps)
			}
		}
	}
}
