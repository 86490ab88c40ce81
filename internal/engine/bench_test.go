package engine

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/ordering"
)

// BenchmarkEmulatedSmallSolve is a converged n=16, d=2 pbr eigensolve on
// the emulated machine: the solo path a small service job takes when no
// lane mate joins it. At this size the exchanges' per-message overhead,
// not the kernels, sets the cost.
func BenchmarkEmulatedSmallSolve(b *testing.B) {
	a := matrix.RandomSymmetric(16, rand.New(rand.NewSource(16)))
	be := &Emulated{Ts: 1000, Tw: 100}
	b.ReportAllocs()
	for b.Loop() {
		prob, err := NewProblem(a, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		prob.Family = ordering.NewPermutedBRFamily()
		out, _, err := prob.Run(be)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Converged {
			b.Fatal("small solve did not converge")
		}
	}
}
