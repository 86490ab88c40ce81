// Svdlab demonstrates the one-sided Jacobi method's other face: singular
// value decomposition (the SVD variant is reference [7] of the paper, Gao &
// Thomas). The same Jacobi orderings schedule the rotations. The demo
// builds a low-rank matrix plus noise and shows the SVD recovering the rank
// structure — the classic workload for which parallel SVD solvers were
// built.
//
//	go run ./examples/svdlab
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

func main() {
	const (
		rows = 40
		cols = 16
		rank = 3
	)
	rng := rand.New(rand.NewSource(77))

	// A = Σ_k σ_k·x_k·y_kᵀ + small noise, with planted σ = 50, 20, 8.
	planted := []float64{50, 20, 8}
	a := matrix.NewDense(rows, cols)
	for k := 0; k < rank; k++ {
		x := randUnit(rows, rng)
		y := randUnit(cols, rng)
		for j := 0; j < cols; j++ {
			matrix.Axpy(planted[k]*y[j], x, a.Col(j))
		}
	}
	noise := 0.01
	for i := range a.Data {
		a.Data[i] += noise * rng.NormFloat64()
	}

	fmt.Printf("%dx%d matrix with planted rank-%d structure (σ = %v) + %.2f noise\n",
		rows, cols, rank, planted, noise)

	svd, err := solveSVD(a, ordering.NewDegree4Family())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one-sided Jacobi SVD (degree-4 ordering): %d sweeps\n\n", svd.Sweeps)

	fmt.Println("  k   singular value   (planted)")
	for k := 0; k < 6; k++ {
		plantedStr := ""
		if k < rank {
			plantedStr = fmt.Sprintf("(%.0f)", planted[k])
		}
		fmt.Printf("  %d     %9.4f      %s\n", k, svd.Values[k], plantedStr)
	}
	fmt.Println("  ... remaining values are noise-level")

	fmt.Printf("\nreconstruction error: %.2e\n", svd.ReconstructionError(a))

	// Rank-3 truncation captures almost all of the energy.
	total, top := 0.0, 0.0
	for k, s := range svd.Values {
		total += s * s
		if k < rank {
			top += s * s
		}
	}
	fmt.Printf("energy captured by rank-%d truncation: %.2f%%\n", rank, 100*top/total)

	// The orderings only reorder rotations: spectra agree across them.
	fmt.Println("\nordering invariance of the spectrum:")
	for _, fam := range []ordering.Family{ordering.NewBRFamily(), ordering.NewPermutedBRFamily()} {
		alt, err := solveSVD(a, fam)
		if err != nil {
			log.Fatal(err)
		}
		maxDiff := 0.0
		for i := range alt.Values {
			if d := alt.Values[i] - svd.Values[i]; d > maxDiff || -d > maxDiff {
				maxDiff = d
				if maxDiff < 0 {
					maxDiff = -maxDiff
				}
			}
		}
		fmt.Printf("  %-12s max |Δσ| = %.2e over %d sweeps\n", fam.Name(), maxDiff, alt.Sweeps)
	}
}

// solveSVD runs the one-sided Jacobi SVD of a with the family's ordering
// replayed sequentially on a virtual 2-cube.
func solveSVD(a *matrix.Dense, fam ordering.Family) (*engine.SVDResult, error) {
	prob, err := engine.NewSVDProblem(a, 2)
	if err != nil {
		return nil, err
	}
	prob.Family = fam
	out, err := prob.RunCentral()
	if err != nil {
		return nil, err
	}
	return out.SVD(), nil
}

func randUnit(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	matrix.Scale(v, 1/matrix.Norm2(v))
	return v
}
