// Package jacobi holds the reference solvers the engine's results are
// compared against, and the paper's Table 2 experiment:
//
//   - SolveCyclic, the classic row-cyclic one-sided Jacobi method (Eberlein
//     [5] in the paper): the ordering-independent sequential baseline;
//   - SolveTwoSided, the classic cyclic two-sided method, which shares no
//     rotation kernel or data layout with the one-sided solvers;
//   - RunTable2, the convergence experiment of the paper's Table 2, run on
//     the engine's central schedule replay.
//
// Every ordering-driven solve — sequential replay, distributed, pipelined,
// batched lane or SVD — is an engine.Problem (internal/engine): build it
// with engine.NewProblem or engine.NewSVDProblem, run it, and extract the
// factors with Outcome.Eigen or Outcome.SVD.
//
// The one-sided method works on two matrices: W (initialized to the
// symmetric input A) and U (initialized to I). Each step applies a plane
// rotation to a pair of columns of both so that the columns of W become
// orthogonal; at convergence W = A·U has orthogonal columns and, since U's
// columns are then eigenvectors of A² (= eigenvectors of A away from ±λ
// degeneracy), the eigenvalues are recovered as λᵢ = uᵢᵀwᵢ = uᵢᵀA·uᵢ.
package jacobi

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/matrix"
)

// Criterion selects the sweep convergence test; see engine.Criterion.
type Criterion = engine.Criterion

const (
	// MaxRelCriterion stops after the first sweep whose largest relative
	// off-diagonal value |γ|/sqrt(αβ) is below Tol (the default).
	MaxRelCriterion = engine.MaxRelCriterion
	// OffFrobCriterion stops when sqrt(Σγ²) falls below Tol·trace(AᵀA) —
	// the criterion used for the Table 2 reproduction (DESIGN.md note 10).
	OffFrobCriterion = engine.OffFrobCriterion
)

// Options configures a solve; see engine.Options.
type Options = engine.Options

// SolveCyclic runs the classic row-cyclic one-sided Jacobi method: each
// sweep visits all column pairs (i, j), i < j, in lexicographic order. It is
// the ordering-independent sequential baseline.
func SolveCyclic(a *matrix.Dense, opts Options) (*engine.EigenResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("jacobi: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	m := a.Rows
	all := &engine.Block{Cols: make([]int, m), A: make([][]float64, m), U: make([][]float64, m)}
	for i := range all.Cols {
		all.Cols[i] = i
		all.A[i] = append([]float64(nil), a.Col(i)...)
		all.U[i] = make([]float64, m)
		all.U[i][i] = 1
	}
	tg := a.FrobeniusNorm()
	out := engine.RunCyclic(all.A, all.U, opts, tg*tg)
	out.Blocks = []*engine.Block{all}
	return out.Eigen(), nil
}
