package jacobi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

func TestSVDKnownMatrix(t *testing.T) {
	// diag(3, 2) has singular values 3, 2.
	a := matrix.NewDense(2, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, 2)
	svd, err := solveSVD(t, a, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !svd.Converged {
		t.Fatal("no convergence")
	}
	if math.Abs(svd.Values[0]-3) > 1e-12 || math.Abs(svd.Values[1]-2) > 1e-12 {
		t.Errorf("singular values %v", svd.Values)
	}
}

func TestSVDRandomSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	for _, n := range []int{4, 8, 16} {
		a := matrix.RandomDense(n, n, rng)
		svd, err := solveSVD(t, a, 1, ordering.NewBRFamily(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !svd.Converged {
			t.Fatalf("n=%d: no convergence", n)
		}
		if e := svd.ReconstructionError(a); e > 1e-10 {
			t.Errorf("n=%d: reconstruction error %g", n, e)
		}
		if o := matrix.OrthogonalityError(svd.U); o > 1e-10 {
			t.Errorf("n=%d: U orthogonality %g", n, o)
		}
		if o := matrix.OrthogonalityError(svd.V); o > 1e-10 {
			t.Errorf("n=%d: V orthogonality %g", n, o)
		}
		for i := 1; i < n; i++ {
			if svd.Values[i] > svd.Values[i-1]+1e-15 {
				t.Fatalf("n=%d: singular values not descending: %v", n, svd.Values)
			}
		}
	}
}

func TestSVDRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	a := matrix.RandomDense(20, 8, rng)
	svd, err := solveSVD(t, a, 1, ordering.NewDegree4Family(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := svd.ReconstructionError(a); e > 1e-10 {
		t.Errorf("reconstruction error %g", e)
	}
	if svd.U.Rows != 20 || svd.U.Cols != 8 || svd.V.Rows != 8 {
		t.Errorf("shapes U %dx%d V %dx%d", svd.U.Rows, svd.U.Cols, svd.V.Rows, svd.V.Cols)
	}
}

func TestSVDRejectsWide(t *testing.T) {
	if _, err := engine.NewSVDProblem(matrix.NewDense(2, 5), 0); err == nil {
		t.Error("wide matrix accepted")
	}
	if _, err := engine.NewSVDProblem(matrix.NewDense(2, 0), 0); err == nil {
		t.Error("empty matrix accepted")
	}
}

// For symmetric positive definite matrices, singular values equal
// eigenvalues: cross-check the SVD solver against the eigensolver.
func TestSVDMatchesEigenForSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	n := 12
	// Build SPD as B·Bᵀ + I.
	b := matrix.RandomDense(n, n, rng)
	spd := b.Mul(b.Transpose())
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+1)
	}
	eig, err := SolveCyclic(spd, Options{})
	if err != nil {
		t.Fatal(err)
	}
	svd, err := solveSVD(t, spd, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// eig.Values ascending, svd.Values descending.
	for i := 0; i < n; i++ {
		want := eig.Values[n-1-i]
		if math.Abs(svd.Values[i]-want) > 1e-8*(1+want) {
			t.Errorf("σ_%d = %g, eigenvalue %g", i, svd.Values[i], want)
		}
	}
}

// The ordering used must not change the spectrum (it only changes rotation
// order).
func TestSVDOrderingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	a := matrix.RandomDense(16, 16, rng)
	ref, err := solveSVD(t, a, 2, ordering.NewBRFamily(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []ordering.Family{ordering.NewPermutedBRFamily(), ordering.NewDegree4Family()} {
		got, err := solveSVD(t, a, 2, fam, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Values {
			if math.Abs(ref.Values[i]-got.Values[i]) > 1e-9*(1+ref.Values[i]) {
				t.Errorf("%s: σ_%d differs: %g vs %g", fam.Name(), i, got.Values[i], ref.Values[i])
			}
		}
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := matrix.NewDense(4, 3)
	svd, err := solveSVD(t, a, 0, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range svd.Values {
		if s != 0 {
			t.Errorf("zero matrix has σ = %v", svd.Values)
		}
	}
	if e := svd.ReconstructionError(a); e != 0 {
		t.Errorf("reconstruction error %g", e)
	}
}

// solveSVD runs the SVD of a with the given ordering replayed sequentially
// on a virtual d-cube (the engine's central path, with rectangular blocks
// accumulating V). d = 0 gives the plain cyclic method.
func solveSVD(t *testing.T, a *matrix.Dense, d int, fam ordering.Family, opts Options) (*engine.SVDResult, error) {
	t.Helper()
	p, err := engine.NewSVDProblem(a, d)
	if err != nil {
		return nil, err
	}
	p.Family = fam
	p.Opts = opts
	out, err := p.RunCentral()
	if err != nil {
		return nil, err
	}
	return out.SVD(), nil
}
