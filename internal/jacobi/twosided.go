package jacobi

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/matrix"
)

// twoSidedSkipEps mirrors the one-sided kernel's rotation-skip threshold
// (engine.RotatePair): far below any convergence tolerance.
const twoSidedSkipEps = 1e-15

// SolveTwoSided runs the classic cyclic two-sided Jacobi eigensolver
// (A ← JᵀAJ), the independent reference implementation used to validate the
// one-sided solvers: it shares no rotation kernel or data layout with them.
func SolveTwoSided(a *matrix.Dense, opts Options) (*engine.EigenResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("jacobi: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	if !a.IsSymmetric(1e-12 * (1 + a.MaxAbs())) {
		return nil, fmt.Errorf("jacobi: two-sided solver requires a symmetric matrix")
	}
	opts = opts.WithDefaults()
	m := a.Rows
	w := a.Clone()
	v := matrix.Identity(m)
	res := &engine.EigenResult{}
	for sweep := 0; sweep < opts.MaxSweeps; sweep++ {
		maxRel := 0.0
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				aii, ajj, aij := w.At(i, i), w.At(j, j), w.At(i, j)
				denom := math.Sqrt(math.Abs(aii*ajj)) + math.Abs(aij)
				var rel float64
				if denom > 0 {
					rel = math.Abs(aij) / denom
				}
				if rel > maxRel {
					maxRel = rel
				}
				if math.Abs(aij) <= twoSidedSkipEps*denom {
					continue
				}
				res.Rotations++
				// tan(2θ) = 2aij/(aii - ajj), stable smaller-angle form.
				var t float64
				theta := (ajj - aii) / (2 * aij)
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyTwoSided(w, i, j, c, s)
				// Accumulate V ← V·J.
				for k := 0; k < m; k++ {
					vi, vj := v.At(k, i), v.At(k, j)
					v.Set(k, i, c*vi-s*vj)
					v.Set(k, j, s*vi+c*vj)
				}
			}
		}
		res.Sweeps++
		res.FinalMaxRel = maxRel
		if maxRel < opts.Tol {
			res.Converged = true
			break
		}
	}
	// Extract and sort eigenpairs.
	type pair struct {
		value float64
		col   int
	}
	pairs := make([]pair, m)
	for i := 0; i < m; i++ {
		pairs[i] = pair{value: w.At(i, i), col: i}
	}
	sort.Slice(pairs, func(x, y int) bool { return pairs[x].value < pairs[y].value })
	res.Values = make([]float64, m)
	res.Vectors = matrix.NewDense(m, m)
	for k, p := range pairs {
		res.Values[k] = p.value
		res.Vectors.SetCol(k, v.Col(p.col))
	}
	return res, nil
}

// applyTwoSided performs W ← JᵀWJ for the plane rotation J in columns (i,j),
// exploiting and preserving symmetry.
func applyTwoSided(w *matrix.Dense, i, j int, c, s float64) {
	m := w.Rows
	// Rows/columns k ∉ {i,j}.
	for k := 0; k < m; k++ {
		if k == i || k == j {
			continue
		}
		wki, wkj := w.At(k, i), w.At(k, j)
		nki := c*wki - s*wkj
		nkj := s*wki + c*wkj
		w.Set(k, i, nki)
		w.Set(i, k, nki)
		w.Set(k, j, nkj)
		w.Set(j, k, nkj)
	}
	wii, wjj, wij := w.At(i, i), w.At(j, j), w.At(i, j)
	nii := c*c*wii - 2*s*c*wij + s*s*wjj
	njj := s*s*wii + 2*s*c*wij + c*c*wjj
	nij := (c*c-s*s)*wij + s*c*(wii-wjj)
	w.Set(i, i, nii)
	w.Set(j, j, njj)
	w.Set(i, j, nij)
	w.Set(j, i, nij)
}
