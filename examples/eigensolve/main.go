// Eigensolve demonstrates the distributed one-sided Jacobi solver on a
// physically meaningful workload — the vibration modes of a spring-mass
// chain (a symmetric tridiagonal stiffness matrix whose exact eigenvalues
// are known in closed form) — and cross-checks every ordering against the
// analytic spectrum and an independent two-sided Jacobi reference.
//
//	go run ./examples/eigensolve
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/engine"
	"repro/internal/jacobi"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

func main() {
	const n = 32
	a := stiffnessChain(n)

	fmt.Printf("spring-mass chain with %d masses: K[i][i]=2, K[i][i±1]=-1\n", n)
	fmt.Println("exact eigenvalues: λ_k = 2 - 2cos(kπ/(n+1)), k = 1..n")
	exact := make([]float64, n)
	for k := 1; k <= n; k++ {
		exact[k-1] = 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
	}

	// Independent reference: two-sided Jacobi (shares no code path with the
	// one-sided solvers).
	ref, err := jacobi.SolveTwoSided(a, jacobi.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-sided reference: %d sweeps, dist to exact %.2e\n",
		ref.Sweeps, matrix.SortedEigenvalueDistance(ref.Values, exact))
	fmt.Println()

	fmt.Println("distributed one-sided solves on an 8-node hypercube (d=3):")
	fmt.Println("  ordering      sweeps  vs-exact   residual   modeled-time  messages")
	for _, fam := range ordering.AllFamilies() {
		res, stats := solve(a, fam, "emulated", 0)
		dist := matrix.SortedEigenvalueDistance(res.Values, exact)
		resid := matrix.EigenResidual(a, res.Values, res.Vectors)
		fmt.Printf("  %-11s  %4d    %.2e   %.2e   %12.0f  %6d\n",
			fam.Name(), res.Sweeps, dist, resid, stats.Makespan, stats.Messages)
	}
	fmt.Println()

	fmt.Println("same solve with communication pipelining (modeled time drops):")
	fmt.Println("  ordering      plain-time    pipelined-time   speedup")
	for _, fam := range ordering.AllFamilies() {
		_, plain := solve(a, fam, "emulated", 0)
		_, piped := solve(a, fam, "emulated", 2)
		fmt.Printf("  %-11s  %10.0f     %10.0f     %.2fx\n",
			fam.Name(), plain.Makespan, piped.Makespan, plain.Makespan/piped.Makespan)
	}

	fmt.Println()
	fmt.Println("one engine, three execution backends (identical numerics):")
	fmt.Println("  backend     sweeps   vs-exact   modeled-time   wall-clock")
	for _, backend := range []string{"emulated", "multicore", "analytic"} {
		res, stats := solve(a, ordering.NewPermutedBRFamily(), backend, 0)
		dist := matrix.SortedEigenvalueDistance(res.Values, exact)
		fmt.Printf("  %-9s   %4d     %.2e   %12.0f   %v\n",
			backend, res.Sweeps, dist, stats.Makespan, stats.WallTime)
	}

	// Show the fundamental mode: the lowest eigenvector should be a
	// half-sine across the chain.
	res, _ := solve(a, ordering.NewDegree4Family(), "emulated", 0)
	fmt.Println()
	fmt.Printf("fundamental mode (λ = %.5f, exact %.5f):\n", res.Values[0], exact[0])
	mode := res.Vectors.Col(0)
	scale := 1.0
	if mode[n/2] < 0 {
		scale = -1 // fix the sign for display
	}
	for i := 0; i < n; i += 4 {
		bar := int(30 * math.Abs(mode[i]))
		fmt.Printf("  mass %2d %+.3f %s\n", i, scale*mode[i], stars(bar))
	}
}

// solve runs the eigensolve of a on an 8-node hypercube (d=3) under the
// ordering, on the named backend of the paper's Figure 2 machine (Ts=1000,
// Tw=100); q > 0 pipelines the exchange phases at that degree.
func solve(a *matrix.Dense, fam ordering.Family, backend string, q int) (*engine.EigenResult, *engine.Stats) {
	be, err := engine.NewBackend(backend, machine.Config{Ts: 1000, Tw: 100})
	if err != nil {
		log.Fatal(err)
	}
	prob, err := engine.NewProblem(a, 3, nil)
	if err != nil {
		log.Fatal(err)
	}
	prob.Family = fam
	prob.Pipelined = q > 0
	prob.PipelineQ = q
	out, stats, err := prob.Run(be)
	if err != nil {
		log.Fatal(err)
	}
	return out.Eigen(), stats
}

// stiffnessChain builds the n×n tridiagonal stiffness matrix of a chain of
// unit masses joined by unit springs with fixed ends.
func stiffnessChain(n int) *matrix.Dense {
	a := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 2)
		if i > 0 {
			a.Set(i, i-1, -1)
			a.Set(i-1, i, -1)
		}
	}
	return a
}

func stars(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '*'
	}
	return string(out)
}
