package kernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/matrix"
	"repro/internal/ordering"
)

// BenchmarkSolveMulticore512 is a converged n=512, d=3 permuted-BR
// eigensolve on the multicore backend (the fused kernels), once per
// dispatch arm. It runs to convergence, so unlike the one-sweep
// BenchmarkBackendMulticore512 in the repository root it includes the
// skip-heavy last sweeps, where most pairs only compute their Gram
// entries.
func BenchmarkSolveMulticore512(b *testing.B) {
	a := matrix.RandomSymmetric(512, rand.New(rand.NewSource(512)))
	kernel.ForEachArmB(b, func(b *testing.B) {
		b.ReportAllocs()
		sweeps := 0
		for i := 0; i < b.N; i++ {
			prob, err := engine.NewProblem(a, 3, nil)
			if err != nil {
				b.Fatal(err)
			}
			prob.Family = ordering.NewPermutedBRFamily()
			out, _, err := prob.Run(&engine.Multicore{})
			if err != nil {
				b.Fatal(err)
			}
			if !out.Converged {
				b.Fatalf("solve did not converge in %d sweeps", out.Sweeps)
			}
			sweeps += out.Sweeps
		}
		b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
	})
}
