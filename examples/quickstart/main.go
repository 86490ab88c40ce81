// Quickstart: compute the eigendecomposition of a random symmetric matrix
// on an emulated 4-node multi-port hypercube using the degree-4 Jacobi
// ordering, and check the result.
//
//	go run ./examples/quickstart
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
	// A 32x32 symmetric matrix with entries uniform in [-1, 1] — the same
	// test-matrix family the paper uses for its convergence experiments.
	rng := rand.New(rand.NewSource(2024))
	a := matrix.RandomSymmetric(32, rng)

	// Solve on a 2-cube (4 nodes) with the degree-4 ordering and
	// communication pipelining — the paper's recommended configuration for
	// moderate problem sizes — on the emulated multi-port hypercube with
	// the paper's Figure 2 machine parameters (Ts=1000, Tw=100).
	prob, err := engine.NewProblem(a, 2, nil)
	if err != nil {
		log.Fatal(err)
	}
	prob.Family = ordering.NewDegree4Family()
	prob.Pipelined = true
	prob.PipelineTs, prob.PipelineTw = 1000, 100
	out, stats, err := prob.Run(&engine.Emulated{Ts: 1000, Tw: 100})
	if err != nil {
		log.Fatal(err)
	}
	eig := out.Eigen()

	fmt.Printf("converged in %d sweeps (%d rotations)\n", eig.Sweeps, eig.Rotations)
	fmt.Printf("eigenvalues (5 smallest): %.4v\n", eig.Values[:5])
	fmt.Printf("eigenvalues (5 largest):  %.4v\n", eig.Values[len(eig.Values)-5:])

	// Validate: eigenpair residual and eigenvector orthogonality.
	fmt.Printf("max residual ||A·v - λ·v||/||A||_F: %.2e\n",
		matrix.EigenResidual(a, eig.Values, eig.Vectors))
	fmt.Printf("eigenvector orthogonality error:    %.2e\n",
		matrix.OrthogonalityError(eig.Vectors))

	// The emulated machine also reports the modeled communication time.
	fmt.Printf("modeled parallel time: %.0f units over %d messages\n",
		stats.Makespan, stats.Messages)
}
