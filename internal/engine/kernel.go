package engine

import (
	"repro/internal/kernel"
)

// The compute primitives live in internal/kernel, which provides both the
// reference path (bit for bit the original three-dot, two-application
// numerics, run as one Gram pass and two vectorized applications — what the
// emulated and analytic backends and the sequential replays run) and the
// fused blocked path the multicore backend runs (see the kernel package
// comment for the layering and the documented ulp bound). The engine
// re-exports the shared types so existing callers and tests keep working.

// Rotation is a plane rotation (cosine, sine); see kernel.Rotation.
type Rotation = kernel.Rotation

// ComputeRotation returns the one-sided Jacobi rotation that orthogonalizes
// a column pair with Gram entries alpha, beta, gamma; see
// kernel.ComputeRotation.
func ComputeRotation(alpha, beta, gamma float64) Rotation {
	return kernel.ComputeRotation(alpha, beta, gamma)
}

// ConvTracker accumulates per-sweep convergence statistics; see kernel.Conv.
type ConvTracker = kernel.Conv

// Scratch is a worker's reusable fused-kernel state; see kernel.Scratch.
type Scratch = kernel.Scratch

// RotatePair orthogonalizes columns (ai, aj) of the working matrix, applying
// the same rotation to the corresponding eigenvector columns (ui, uj), and
// records convergence information. It is the reference rotation kernel
// (kernel.RotatePairRef) shared by the sequential replays and the clocked
// backends, guaranteeing their numerical equivalence; the multicore backend
// runs the fused kernels instead (kernel.Scratch).
func RotatePair(ai, aj, ui, uj []float64, conv *ConvTracker) {
	kernel.RotatePairRef(ai, aj, ui, uj, conv)
}
