// Package kernel is the compute layer of the one-sided Jacobi engine: the
// plane-rotation primitives every solver flavor and execution backend runs
// on. It provides two implementations of the same mathematics:
//
//   - The reference path (GramRef, RotatePairRef): bit for bit the
//     numerics of the repository's original solvers — three
//     single-accumulator Gram dot products, then Rotation.Apply on the
//     working pair and on the factor pair — so the paper's experiments stay
//     reproducible, and the yardstick the differential test suite measures
//     the fused path against. It computes those numerics in two passes, one
//     Gram loop and one vectorized application per pair; ref.go gives the
//     bit-exactness argument.
//
//   - The fused path (Scratch.Within, Scratch.Cross, RotatePairFused): a
//     blocked, zero-allocation formulation that streams each column pair
//     through cache once per pairing instead of three times. The Gram
//     entries of the next pair are accumulated during the current pair's
//     rotation application, column norms are carried in per-worker scratch
//     buffers across the pairing, and the accumulated factor (U for the
//     eigensolve, V for the SVD) is rotated in the same fused sweep over the
//     rows as the working matrix. Dot products use unrolled independent
//     accumulator chains, so sums are reassociated relative to the reference
//     path: results agree within a documented ulp bound (see ULP BOUND
//     below), not bitwise.
//
// Which path a solve uses is decided per execution backend by the engine:
// the emulated and analytic backends (whose metric is the modeled makespan,
// not wall-clock) stay on the reference path and remain bit-identical to
// each other and to the sequential central replay; the multicore backend —
// the hardware-speed path — uses the fused kernels.
//
// # ULP BOUND
//
// Fusion never changes which floating-point products are summed, only the
// association order of the sums. Standard summation analysis bounds the
// difference between any two association orders of k terms t_1..t_k by
// (k-1)·eps·Σ|t_i| to first order. The package's documented budgets, with a
// 4x safety margin and n the column height:
//
//	|alpha_f − alpha_r| ≤ 4n·eps·alpha_r           (no cancellation: Σ|t| = alpha)
//	|beta_f  − beta_r | ≤ 4n·eps·beta_r
//	|gamma_f − gamma_r| ≤ 4n·eps·sqrt(alpha_r·beta_r)   (Cauchy–Schwarz on Σ|x_k·y_k|)
//
// The differential suite (diff_test.go) enforces these bounds for every
// fused kernel against the reference on shapes n = 4..520, and end-to-end
// solve comparisons in the engine and jacobi packages bound the accumulated
// effect on eigenvalues and singular values. Because the rotation-skip
// decision compares |gamma|/sqrt(alpha·beta) against SkipEps, a pair lying
// within an ulp of the threshold may be rotated by one path and skipped by
// the other; rotation counts are therefore not an invariant between the
// reference and fused paths (they remain an invariant across backends
// running the same path).
package kernel

import "math"

// Rotation is a plane rotation (cosine, sine).
type Rotation struct {
	C, S float64
}

// ComputeRotation returns the one-sided Jacobi rotation that orthogonalizes
// a column pair with Gram entries alpha = aᵢᵀaᵢ, beta = aⱼᵀaⱼ and
// gamma = aᵢᵀaⱼ, using the numerically stable smaller-angle formulation:
//
//	ζ = (β-α)/(2γ),  t = sgn(ζ)/(|ζ|+sqrt(1+ζ²)),  c = 1/sqrt(1+t²),  s = t·c
//
//jacobi:noalloc
func ComputeRotation(alpha, beta, gamma float64) Rotation {
	if gamma == 0 {
		return Rotation{C: 1, S: 0}
	}
	zeta := (beta - alpha) / (2 * gamma)
	var t float64
	if zeta >= 0 {
		t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
	} else {
		t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
	}
	c := 1 / math.Sqrt(1+t*t)
	return Rotation{C: c, S: t * c}
}

// Apply rotates the column pair (x, y) in place:
//
//	x' = c·x - s·y,  y' = s·x + c·y
//
// It is the scalar definition of the rotation application: the kernels
// apply rotations through applyPair, which is pinned bit-identical to it.
// The two columns must have equal length: rotating a prefix of one column
// against another is never meaningful, and the original implementation
// would have mutated a prefix of the pair before hitting the mismatch.
// Apply panics up front, before touching any element.
func (r Rotation) Apply(x, y []float64) {
	if len(x) != len(y) {
		panic("kernel: Rotation.Apply on columns of unequal length")
	}
	y = y[:len(x)] // bounds-check hint for the loop below
	c, s := r.C, r.S
	for k := range x {
		xi, yi := x[k], y[k]
		x[k] = c*xi - s*yi
		y[k] = s*xi + c*yi
	}
}

// SkipEps is the relative off-diagonal magnitude below which a pair is left
// unrotated. It is far below any convergence tolerance, so skipping cannot
// mask non-convergence, and avoids denormal churn near the end.
const SkipEps = 1e-15

// RelOff returns the relative off-diagonal value |γ|/sqrt(αβ) of a Gram
// triple (0 when the denominator vanishes) — the quantity the skip decision
// and the MaxRel convergence criterion are built on.
//
//jacobi:noalloc
func RelOff(alpha, beta, gamma float64) float64 {
	denom := math.Sqrt(alpha * beta)
	if denom > 0 {
		return math.Abs(gamma) / denom
	}
	return 0
}

// Conv accumulates per-sweep convergence statistics: the largest relative
// off-diagonal element |γ|/sqrt(αβ) seen, the sum of squared off-diagonal
// Gram entries Σγ² (measured as pairs are visited, i.e. the running
// estimate of off(AᵀA)²), and rotation counts. Every quantity is a sum or
// max, so per-node trackers of the distributed solver combine with Merge
// (an allreduce) at sweep end without extra communication rounds.
type Conv struct {
	MaxRel    float64
	OffSq     float64
	Rotations int
	Pairs     int
}

// Observe folds one pair's relative and absolute off-diagonal values into
// the tracker.
//
//jacobi:noalloc
func (c *Conv) Observe(rel, gamma float64, rotated bool) {
	c.Pairs++
	if rotated {
		c.Rotations++
	}
	if rel > c.MaxRel {
		c.MaxRel = rel
	}
	c.OffSq += gamma * gamma
}

// Merge folds another tracker (e.g. from another node) into this one.
func (c *Conv) Merge(o Conv) {
	if o.MaxRel > c.MaxRel {
		c.MaxRel = o.MaxRel
	}
	c.OffSq += o.OffSq
	c.Rotations += o.Rotations
	c.Pairs += o.Pairs
}
