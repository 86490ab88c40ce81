package kernel

// This file is the reference path: the compute kernels with exactly the
// numerics the repository's solvers originally ran, preserved bit for bit.
// The emulated and analytic backends and the sequential replays execute
// these, and the differential suite measures every fused kernel against
// them.
//
// The reference numerics are defined by the textbook formulation — three
// single-accumulator dot products (matrix.Dot) for α, β and γ, then
// Rotation.Apply on the working pair and on the factor pair — but the code
// below runs it in two passes instead of five. Bit-exactness rests on
// three facts: the one-pass Gram computes the same products and adds each
// to its own accumulator, starting from 0 and going left to right, so every
// sum is rounded exactly as matrix.Dot rounds it; the rotation application
// involves no sums at all; and applyPair's vector arm performs the same
// multiply, multiply, add/subtract per element with no FMA. The three-pass
// oracle in ref_test.go, FuzzRotatePairRef and the golden solves in
// internal/engine pin this.

// GramRef returns the Gram entries (alpha, beta, gamma) of a column pair in
// one pass over the rows, with three independent accumulators each summed
// left to right from 0 — bit-identical to three separate matrix.Dot calls.
// The columns must have equal length.
//
//jacobi:noalloc
func GramRef(x, y []float64) (alpha, beta, gamma float64) {
	if len(x) != len(y) {
		panic("kernel: GramRef on columns of unequal length")
	}
	y = y[:len(x)] // bounds-check hint for the loop below
	for k, xk := range x {
		yk := y[k]
		alpha += xk * xk
		beta += yk * yk
		gamma += xk * yk
	}
	return
}

// RotatePairRef orthogonalizes columns (ai, aj) of the working matrix,
// applying the same rotation to the corresponding factor columns (ui, uj),
// and records convergence information — the reference rotation kernel: one
// Gram pass, then the rotation applied to both pairs through applyPair
// (bit-identical to Rotation.Apply on every dispatch arm).
//
// Each pair must have equal lengths (the factor height may differ from the
// working height). RotatePairRef panics on a mismatch before touching any
// element, as Rotation.Apply does.
//
//jacobi:noalloc
func RotatePairRef(ai, aj, ui, uj []float64, conv *Conv) {
	if len(ai) != len(aj) || len(ui) != len(uj) {
		panic("kernel: RotatePairRef on columns of unequal length")
	}
	alpha, beta, gamma := GramRef(ai, aj)
	rel := RelOff(alpha, beta, gamma)
	if rel <= SkipEps {
		conv.Observe(rel, gamma, false)
		return
	}
	r := ComputeRotation(alpha, beta, gamma)
	applyPair(r.C, r.S, ai, aj)
	applyPair(r.C, r.S, ui, uj)
	conv.Observe(rel, gamma, true)
}
